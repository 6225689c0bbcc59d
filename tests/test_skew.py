"""check_skew_symmetric against an independent brute force.

The engine decides skew-symmetry under (a a+1) as the identity
f + f o (a a+1) = 0, one first-witness scan per adjacent pair.  The
reference here uses only the dense evaluate_identity: it evaluates the map
at every basis tuple and, for every adjacent swap, reports the first
(min(t, t swapped), a) in lexicographic order where f(t) + f(t swapped) is
nonzero.  Verdict, tuple, transposition, residual and tuples_checked must
agree: on the zoo, after a random rational change of basis and through the
pool.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import check_skew_symmetric, linearize, octonion_malcev, zoo
from malcevlab.engine import evaluate_identity
from test_compiled import CATALOG, MAPS as COMPILED_MAPS, SMALL, TUPLE_BUDGET
from test_integral import MAPS as INTEGRAL_MAPS
from test_integral import SEEDED_RANDOM, _outcome, rebased

ZOO = zoo()
MAPS = list({m.name: m for m in COMPILED_MAPS + INTEGRAL_MAPS}.values()) + [
    linearize(ident) for ident in CATALOG]


def brute_force_skew(algebra, f):
    """(status, tuples_checked, witness) as _outcome gives them, from the
    dense value of f at every basis tuple."""
    n = len(f.variables)
    basis = algebra.basis()
    values = {}

    def value(t):
        if t not in values:
            values[t] = evaluate_identity(algebra, f, dict(zip(f.variables, (basis[i] for i in t))))
        return values[t]

    total = algebra.dim ** n
    for t in product(range(algebra.dim), repeat=n):
        for a in range(n - 1):
            swapped = t[:a] + (t[a + 1], t[a]) + t[a + 2:]
            if swapped < t:
                continue  # the pair was met at the swapped tuple
            residual = value(t) + value(swapped)
            if not residual.is_zero():
                return "fails", total, (t, residual, (a, a + 1))
    return "holds", total, None


def assert_matches_brute_force(algebra, f, jobs=1):
    report = check_skew_symmetric(algebra, f, jobs=jobs)
    assert report.identity == f
    assert _outcome(report) == brute_force_skew(algebra, f), (algebra.name, f.name)
    return report


def _cases(names):
    for name in names:
        for f in MAPS:
            if ZOO[name].dim ** len(f.variables) <= TUPLE_BUDGET:
                yield name, f


def test_skew_verdict_matches_brute_force_on_the_zoo():
    pairs = set()
    for name, f in _cases(ZOO):
        report = assert_matches_brute_force(ZOO[name], f)
        if not report.ok:
            pairs.add(report.counterexample.transposition)
    # first violations under the first, a middle and the last pair
    assert pairs == {(0, 1), (1, 2), (2, 3)}


@settings(max_examples=30, deadline=None)
@given(SEEDED_RANDOM, st.sampled_from(list(_cases(SMALL))))
def test_skew_verdict_matches_brute_force_after_change_of_basis(rng, case):
    name, f = case
    assert_matches_brute_force(rebased(ZOO[name], rng), f)


@pytest.mark.parametrize("name", ["xi", "zeta", "summed", "mixed", "first_type_1",
                                  "second_type_3a_linearized", "sagle_2_15"])
def test_skew_verdict_matches_brute_force_through_the_pool(force_pool, name):
    f = next(m for m in MAPS if m.name == name)
    assert_matches_brute_force(octonion_malcev(), f, jobs=2)
