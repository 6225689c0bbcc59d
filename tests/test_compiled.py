"""Canonical terms and subterm tables against the plain compiled scan.

The engine rewrites an identity's terms modulo anticommutativity before it
compiles them, and evaluates a product over variables other than exactly
0..d (d its last axis) once per assignment of its own variables, from a
table.  The reference is the same engine with, in this test only, every
term kept as written (_canonical_terms patched to replace variables by
axes and nothing else), no product tabled (_key_axes patched to None) and
no transposition bound (_transpositions patched to find none, as terms
written in canonical form would otherwise give them): each product is
then computed at every visit of its last variable, at every tuple.
Verdict, first counterexample (indices, residual, transposition) and
tuples_checked must agree, for identities and skew maps, on the zoo,
after random rational changes of basis, on the pruned 23-dim example and
through the pool.
"""

from contextlib import contextmanager
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (
    builtin_catalog,
    catalog_identity,
    check_identity,
    check_skew_symmetric,
    linearize,
    octonion_malcev,
    parse_identity,
    parse_map,
    zoo,
)
from malcevlab import engine
from conftest import count_products
from test_integral import SEEDED_RANDOM, _outcome, rebased

ZOO = zoo()
CATALOG = [entry.identity for entry in builtin_catalog().values()]
IDENTITIES = CATALOG + [
    # repeated and swapped products: canonical terms sum or cancel them
    parse_identity("swap : x,y | x*y + y*x = 0"),
    parse_identity("twice : x,y,z | (x*y)*z - (y*x)*z = 0"),
    parse_identity("mirror : x,y,z | (x*y)*z = z*(y*x)"),
    parse_identity("cross : x,y,z,w | (x*y)*(z*w) + (w*z)*(y*x) = 2*(x*y)*(z*w)"),
    parse_identity("nothing : x,y | 0 = 0"),
    # z has degree 0: it occurs in no term
    parse_identity("t : x,y,z | x*y = 0"),
    parse_identity("u : x,y,z | (x*y)*y = 0"),
    parse_identity("v : x,y,z | (x*y)*y + y*(x*y) = 0"),
]
MAPS = [
    parse_map("x1,x2,x3,x4 | J(x1,x2,x3*x4)", name="xi"),
    parse_map("x1,x2,x3,x4 | J(x1,x2,x3)*x4", name="zeta"),
    parse_map("x1,x2,x3,x4,x5 | J(x1*x2,x3*x4,x5)", name="sigma"),
    parse_map("x,y,z | (x*y)*z", name="assoc"),
    parse_map("x,y | x*y + y*x", name="symmetric"),
    parse_map("x,y,z | (x*y)*z - z*(y*x)", name="cancelled"),
    parse_map("x,y,z | (y*x)*z + 2*z*(x*y)", name="summed"),
]
CHECKS = [(check_identity, i) for i in IDENTITIES] + [
    (check_skew_symmetric, m) for m in MAPS + [linearize(i) for i in CATALOG]
]
# the plain reference scan of one case visits at most this many tuples
TUPLE_BUDGET = 2401


def _as_written(terms, variables):
    """The terms with each variable replaced by its axis, nothing else.  A
    variable is a name, or an axis when the skew check relabels terms."""
    axis = {v: i for i, v in enumerate(variables)}

    def axes(tree):
        return axis[tree] if not isinstance(tree, tuple) else (axes(tree[0]), axes(tree[1]))

    return tuple((coeff, axes(tree)) for coeff, tree in terms)


@contextmanager
def plain_program():
    """Terms as written, no tables and no transposition bounds: every
    product at every visit of every tuple."""
    with mock.patch.object(engine, "_canonical_terms", _as_written), \
            mock.patch.object(engine, "_key_axes", lambda variables, d: None), \
            mock.patch.object(engine, "_transpositions", lambda terms, n_vars: ()):
        yield


def assert_matches_plain_program(algebra, check, ident, jobs=1):
    compiled = check(algebra, ident, jobs=jobs)
    with plain_program():
        plain = check(algebra, ident)
    assert compiled.identity == plain.identity
    assert _outcome(compiled) == _outcome(plain), (algebra.name, ident.name)


def _n_vars(ident):
    return len((ident if ident.is_multilinear else linearize(ident)).variables)


def _cases(names):
    for name in names:
        for check, ident in CHECKS:
            if ZOO[name].dim ** _n_vars(ident) <= TUPLE_BUDGET:
                yield name, check, ident


SMALL = ["cross_product", "heisenberg", "octonion_malcev", "free_2_3", "free_3_3", "abelian_3"]
REBASED_CASES = list(_cases(SMALL))


def test_compiled_program_matches_plain_program_on_the_zoo():
    for name, check, ident in _cases(ZOO):
        assert_matches_plain_program(ZOO[name], check, ident)


@settings(max_examples=60, deadline=None)
@given(SEEDED_RANDOM, st.sampled_from(REBASED_CASES))
def test_compiled_program_matches_plain_program_after_change_of_basis(rng, case):
    name, check, ident = case
    assert_matches_plain_program(rebased(ZOO[name], rng), check, ident)


@pytest.mark.parametrize("check, ident", [
    (check, ident) for check, ident in CHECKS if _n_vars(ident) <= 4
], ids=lambda value: getattr(value, "name", getattr(value, "__name__", "")))
def test_compiled_program_matches_plain_program_on_the_example(atilde, check, ident):
    # pruned: class 5 leaves only tuples of generators for four variables
    assert_matches_plain_program(atilde, check, ident)


@pytest.mark.parametrize("check, name", [
    (check_identity, "malcev"),
    (check_identity, "first_type_4"),
    (check_identity, "sagle_2_14"),
    (check_skew_symmetric, "xi"),
    (check_skew_symmetric, "summed"),
])
def test_compiled_program_matches_plain_program_through_the_pool(force_pool, check, name):
    if check is check_identity:
        ident = catalog_identity(name)
    else:
        ident = next(m for m in MAPS if m.name == name)
    assert_matches_plain_program(octonion_malcev(), check, ident, jobs=2)


def test_canonical_terms_of_the_catalog():
    # malcev 12 -> 8 terms, sagle_2_14 12 -> 9, anticommutative 2 -> 0
    counts = {}
    for name in ("malcev", "sagle_2_14", "anticommutative"):
        ident = catalog_identity(name)
        checked = ident if ident.is_multilinear else linearize(ident)
        terms = checked.residual_terms()
        counts[name] = (len(terms), len(engine._canonical_terms(terms, checked.variables)))
    assert counts == {"malcev": (12, 8), "sagle_2_14": (12, 9), "anticommutative": (2, 0)}


def test_largest_malcev_table_on_the_octonions():
    # a table keyed by k axes holds at most 7^k entries between two
    # clears; the distinct keys read over the whole scan bound that
    seen = []

    def recording(*axes):
        get = itemgetter(*axes)
        keys = set()
        seen.append(keys)

        def key(idx):
            k = get(idx)
            keys.add(k)
            return k
        return key

    with mock.patch.object(engine, "itemgetter", recording):
        assert check_identity(octonion_malcev(), catalog_identity("malcev")).ok
    assert seen and max(len(keys) for keys in seen) <= 7 ** 3


class InProcessPool:
    """The pool protocol run in this process by one worker: the
    initializer once, then every task in order."""

    def __init__(self, model, program, jobs):
        engine._init_worker(model, program)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, task, items):
        return map(task, items)


@pytest.mark.parametrize("name", ["malcev", "sagle_2_15"])
def test_a_worker_fills_its_first_axis_tables_once(force_pool, monkeypatch, name):
    # a table keyed after axis 0 does not depend on idx[0]: a worker that
    # scans every first-axis index, one task each, multiplies no more than
    # one serial scan
    algebra, ident = octonion_malcev(), catalog_identity(name)
    check_identity(algebra, ident)  # the algebra caches its power chain
    reports = []
    serial_products = count_products(lambda: reports.append(check_identity(algebra, ident)))
    monkeypatch.setattr(engine, "_pool", InProcessPool)
    monkeypatch.setattr(engine, "_WORKER_STATE", None)
    pooled_products = count_products(lambda: reports.append(check_identity(algebra, ident, jobs=2)))
    serial, pooled = reports
    assert engine._WORKER_STATE is not None
    assert _outcome(pooled) == _outcome(serial)
    assert serial_products > 0 and pooled_products <= serial_products
