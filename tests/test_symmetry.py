"""Transposition bounds against the plain scan.

check_identity finds the axis transpositions (a b), a < b, that map the
canonical terms to themselves or to their negation, and enters depth b of
the scan only at indices >= idx[a] (symmetric) or > idx[a] (skew).  The
reference is the same engine with, in this test only, no transposition
found (_transpositions patched to return none): it visits every tuple the
filtration leaves.  Verdict, first counterexample (indices, residual) and
tuples_checked must agree: for the catalog and the DSL and degree-0 cases
of test_compiled on the zoo, after random rational changes of basis, on
the pruned 23-dim example and through the pool.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (
    builtin_catalog,
    catalog_identity,
    check_identity,
    linearize,
    octonion_malcev,
    parse_identity,
    zoo,
)
from malcevlab import engine
from test_compiled import IDENTITIES as COMPILED_CASES
from test_compiled import SMALL, TUPLE_BUDGET, _n_vars
from test_integral import SEEDED_RANDOM, _outcome, rebased

ZOO = zoo()
IDENTITIES = COMPILED_CASES + [
    # symmetric in x, y: a first witness may have x = y
    parse_identity("sym : x,y,z | (x*z)*y + (y*z)*x = 0"),
    # skew in the first and last variable only
    parse_identity("far : x,y,z | (x*y)*z - (z*y)*x = 0"),
    # linearized to x1, x2, x3, all three symmetric, and w
    parse_identity("cube : x,w | ((w*x)*x)*x = 0"),
    # symmetric in x, w and skew in y, z: the first witness, at (0, 0, 1, 0)
    # on the octonions, has w < z, so the bound of w is read from x alone
    parse_identity("apart : x,y,z,w | (x*(y*z))*w + (w*(y*z))*x = 0"),
]
# the transpositions of each catalog identity's canonical terms, by axis
CATALOG_TRANSPOSITIONS = {
    "jacobi": ((0, 1, True), (0, 2, True), (1, 2, True)),
    "malcev": ((0, 1, False),),
    "first_type_1": ((0, 1, True), (0, 2, True), (1, 2, True)),
    "first_type_2": ((0, 1, True), (2, 3, True)),
    "second_type_3a": ((0, 1, False), (2, 3, True)),
    "second_type_3b": ((0, 1, False),),
    "first_type_4": ((0, 1, True), (2, 3, True)),
    "first_type_5": ((0, 1, True), (0, 2, True), (1, 2, True)),
    "malcev_linear": ((0, 2, False),),
    "sagle_2_14": ((1, 2, True), (1, 3, True), (2, 3, True)),
    "sagle_2_15": ((0, 1, True), (2, 3, True)),
    "jacobian_shift_6": ((0, 1, True), (2, 3, True)),
    "two_w_jacobian": ((2, 3, True),),
}


@contextmanager
def unbounded():
    """No transposition found: every tuple the filtration leaves is visited."""
    with mock.patch.object(engine, "_transpositions", lambda terms, n_vars: ()):
        yield


def assert_matches_unbounded(algebra, ident, jobs=1):
    bounded = check_identity(algebra, ident, jobs=jobs)
    with unbounded():
        plain = check_identity(algebra, ident)
    assert bounded.identity == plain.identity
    assert _outcome(bounded) == _outcome(plain), (algebra.name, ident.name)
    return bounded


def _cases(names):
    for name in names:
        for ident in IDENTITIES:
            if ZOO[name].dim ** _n_vars(ident) <= TUPLE_BUDGET:
                yield name, ident


def _transpositions_of(ident):
    checked = ident if ident.is_multilinear else linearize(ident)
    terms = engine._canonical_terms(checked.residual_terms(), checked.variables)
    return terms, engine._transpositions(terms, len(checked.variables))


def test_transpositions_of_the_catalog():
    found = {}
    for name, entry in builtin_catalog().items():
        terms, transpositions = _transpositions_of(entry.identity)
        if terms:
            found[name] = transpositions
    # anticommutative has no canonical terms and is decided without a scan
    assert found == CATALOG_TRANSPOSITIONS


def test_transpositions_of_the_extra_cases():
    found = {ident.name: _transpositions_of(ident)[1] for ident in IDENTITIES[-4:]}
    assert found == {
        "sym": ((0, 1, False),),
        "far": ((0, 2, True),),
        "cube": ((0, 1, False), (0, 2, False), (1, 2, False)),
        "apart": ((0, 3, False), (1, 2, True)),
    }


def test_bounded_scan_matches_plain_scan_on_the_zoo():
    on_bound = set()
    for name, ident in _cases(ZOO):
        report = assert_matches_unbounded(ZOO[name], ident)
        if not report.ok:
            idx = report.counterexample.indices
            on_bound.update(skew for a, b, skew in _transpositions_of(ident)[1]
                            if idx[b] == idx[a] + skew)
    # some first witnesses sit on the bound of a symmetric pair, others on
    # that of a skew pair: a bound one index too high would skip them
    assert on_bound == {False, True}


@settings(max_examples=60, deadline=None)
@given(SEEDED_RANDOM, st.sampled_from(list(_cases(SMALL))))
def test_bounded_scan_matches_plain_scan_after_change_of_basis(rng, case):
    name, ident = case
    assert_matches_unbounded(rebased(ZOO[name], rng), ident)


@pytest.mark.parametrize("ident", [i for i in IDENTITIES if _n_vars(i) <= 4],
                         ids=lambda ident: ident.name)
def test_bounded_scan_matches_plain_scan_on_the_example(atilde, ident):
    # pruned: class 5 leaves only tuples of generators for four variables
    assert_matches_unbounded(atilde, ident)


@pytest.mark.parametrize("name", ["malcev", "first_type_4", "sagle_2_14", "second_type_3a"])
def test_bounded_scan_matches_plain_scan_through_the_pool(force_pool, name):
    assert_matches_unbounded(octonion_malcev(), catalog_identity(name), jobs=2)


def _visited(algebra, ident):
    """Tuples the scan evaluates: it sums the weighted terms at each."""
    calls = []

    def counting(acc, coeff, items):
        calls.append(None)
        return accumulate(acc, coeff, items)

    accumulate = engine.accumulate
    terms, _ = _transpositions_of(ident)
    with mock.patch.object(engine, "accumulate", counting):
        assert check_identity(algebra, ident).ok
    return len(calls) // len(terms)


def test_tuples_visited_on_the_octonions():
    # the octonion algebra is not nilpotent: without the bounds every
    # identity visits all 7^4 = 2,401 tuples
    algebra = octonion_malcev()
    visited = {name: _visited(algebra, catalog_identity(name)) for name in (
        "malcev", "malcev_linear", "sagle_2_14", "sagle_2_15", "jacobian_shift_6")}
    # symmetric pair: 7 * 8 / 2 * 7^2; skew triple: 7 * C(7, 3); two skew pairs: C(7, 2)^2
    assert visited == {"malcev": 1372, "malcev_linear": 1372, "sagle_2_14": 245,
                       "sagle_2_15": 441, "jacobian_shift_6": 441}
    with unbounded():
        assert _visited(algebra, catalog_identity("sagle_2_14")) == 7 ** 4


def test_transpositions_are_built_once_per_terms():
    # a repeat call on equal (not identical) terms reuses the cached result
    # and relabels no term again
    relabelled = []
    swapped = engine._swapped

    def counting(terms, n_vars, a, b):
        relabelled.append((a, b))
        return swapped(terms, n_vars, a, b)

    terms, _ = _transpositions_of(catalog_identity("sagle_2_14"))
    engine._transpositions.cache_clear()
    with mock.patch.object(engine, "_swapped", counting):
        first = engine._transpositions(terms, 4)
        built = len(relabelled)
        again = engine._transpositions(tuple(list(terms)), 4)
    assert built == 6 and len(relabelled) == built
    assert again == first == CATALOG_TRANSPOSITIONS["sagle_2_14"]
