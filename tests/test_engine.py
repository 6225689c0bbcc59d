import contextlib
import multiprocessing
import os
import random
import types
from unittest import mock

import pytest

from malcevlab import (
    builtin_catalog,
    catalog_identity,
    check_identity,
    check_skew_symmetric,
    parse_identity,
    parse_map,
)
from malcevlab import engine
from malcevlab.construct import (
    abelian_algebra,
    cross_product_algebra,
    free_anticommutative,
    heisenberg_algebra,
    octonion_malcev,
)
from malcevlab.engine import (
    ScanBudgetExceeded,
    evaluate_identity,
    random_element,
    random_substitutions_vanish,
)
from test_integral import rebased


def test_jacobi_holds_on_lie_instances():
    for make in (abelian_algebra(3), cross_product_algebra(), heisenberg_algebra()):
        report = check_identity(make, catalog_identity("jacobi"))
        assert report.ok
        assert report.tuples_checked == make.dim ** 3


def test_jacobi_fails_on_free_algebra():
    free = free_anticommutative(4, 4)
    report = check_identity(free, catalog_identity("jacobi"))
    assert report.status == "fails"
    cx = report.counterexample
    # first lexicographic witness: three distinct generators
    assert cx.indices == (0, 1, 2)
    j = free.jacobian(*(free.basis_element(i) for i in cx.indices))
    assert j == cx.residual and not j.is_zero()
    # rank semantics: (0,1,2) has rank 0*d^2 + 1*d + 2
    assert report.tuples_checked == free.dim + 2 + 1


def test_anticommutative_identity_everywhere():
    for algebra in (cross_product_algebra(), octonion_malcev(), free_anticommutative(2, 4)):
        assert check_identity(algebra, catalog_identity("anticommutative")).ok


def test_counterexample_reevaluates_nonzero(atilde):
    report = check_identity(atilde, catalog_identity("first_type_5"))
    assert report.status == "fails"
    cx = report.counterexample
    assignment = {
        v: atilde.basis_element(i) for v, i in zip(report.identity.variables, cx.indices)
    }
    value = evaluate_identity(atilde, report.identity, assignment)
    assert value == cx.residual
    assert not value.is_zero()


def _outcome(report):
    cx = report.counterexample
    witness = None if cx is None else (cx.indices, cx.residual, cx.transposition)
    return report.status, report.tuples_checked, witness


def test_parallel_jobs_agree_with_serial(force_pool):
    oct7 = octonion_malcev()
    ident = catalog_identity("first_type_4")
    serial = check_identity(oct7, ident, jobs=1)
    parallel = check_identity(oct7, ident, jobs=2)
    assert serial.status == parallel.status == "fails"
    assert serial.counterexample.indices == parallel.counterexample.indices
    assert serial.counterexample.residual == parallel.counterexample.residual
    assert serial.tuples_checked == parallel.tuples_checked


def test_parallel_jobs_agree_when_identity_holds(force_pool):
    oct7 = octonion_malcev()
    ident = catalog_identity("malcev")
    serial = check_identity(oct7, ident, jobs=1)
    parallel = check_identity(oct7, ident, jobs=2)
    assert serial.ok and parallel.ok
    assert serial.tuples_checked == parallel.tuples_checked == 7 ** 4


def test_parallel_jobs_agree_for_skew_checks(force_pool):
    oct7 = octonion_malcev()
    jac = parse_map("x1,x2,x3 | J(x1,x2,x3)", name="jac")
    xi = parse_map("x1,x2,x3,x4 | J(x1,x2,x3*x4)", name="xi")
    serial, parallel = (check_skew_symmetric(oct7, jac, jobs=j) for j in (1, 2))
    assert serial.ok and parallel.ok
    assert serial.tuples_checked == parallel.tuples_checked == 7 ** 3
    serial, parallel = (check_skew_symmetric(oct7, xi, jobs=j) for j in (1, 2))
    assert serial.status == "fails"
    assert _outcome(serial) == _outcome(parallel)


def test_small_workloads_skip_the_pool(atilde, monkeypatch):
    # pool startup costs more than tiny scans; results must still agree
    def no_pool(*args):
        raise AssertionError("pool started for a small scan")

    monkeypatch.setattr(engine, "_pool", no_pool)
    oct7 = octonion_malcev()
    ident = catalog_identity("malcev")
    serial = check_identity(oct7, ident, jobs=1)
    parallel = check_identity(oct7, ident, jobs=2)
    assert serial.ok and parallel.ok
    assert serial.tuples_checked == parallel.tuples_checked == 7 ** 4
    # 23^4 tuples, but the algebra is nilpotent and pruning leaves 4^4
    assert check_identity(atilde, ident, jobs=2).tuples_checked == 23 ** 4


def test_multilinear_completeness_crosscheck():
    """Exhaustive verdicts agree with 100 random rational substitutions."""
    cases = [
        (cross_product_algebra(), "jacobi", True),
        (cross_product_algebra(), "first_type_4", True),
        (octonion_malcev(), "jacobi", False),
        (octonion_malcev(), "first_type_4", False),
        (free_anticommutative(3, 3), "jacobi", True),
    ]
    catalog = builtin_catalog()
    for algebra, name, expected in cases:
        ident = catalog[name].identity
        report = check_identity(algebra, ident)
        assert report.ok is expected, (algebra.name, name)
        rng = random.Random(f"complete:{algebra.name}:{name}")
        all_zero, hits = random_substitutions_vanish(algebra, ident, rng, samples=100)
        assert all_zero is expected, (algebra.name, name, hits)


def test_integer_sample_points_give_the_rational_hits(animals):
    # random_substitutions_vanish evaluates each drawn point times the lcm
    # of its denominators; the reference below evaluates the points as drawn
    algebras = dict(animals)
    algebras["octonion_malcev@rebased"] = rebased(animals["octonion_malcev"], random.Random(7))
    assert algebras["octonion_malcev@rebased"].integral_model()[1] > 1
    evaluate = engine.evaluate_identity
    points = []

    def recorded(algebra, ident, assignment):
        points.extend(assignment.values())
        return evaluate(algebra, ident, assignment)

    hits_seen = set()
    for ident_name, entry in builtin_catalog().items():
        ident = entry.identity
        if ident.is_multilinear:
            continue
        for name, algebra in algebras.items():
            seed = f"{ident_name}:{name}"
            rng = random.Random(seed)
            rational_hits = 0
            for _ in range(25):
                assignment = {v: random_element(algebra, rng) for v in ident.variables}
                if not evaluate_identity(algebra, ident, assignment).is_zero():
                    rational_hits += 1
            with mock.patch.object(engine, "evaluate_identity", recorded):
                all_zero, hits = random_substitutions_vanish(algebra, ident, random.Random(seed), 25)
            assert (all_zero, hits) == (rational_hits == 0, rational_hits), seed
            hits_seen.add(hits)
    assert points and all(type(c) is int for x in points for c in x.coords)
    assert 0 in hits_seen and 25 in hits_seen


def test_skew_check_rejects_non_multilinear():
    with pytest.raises(Exception):
        check_skew_symmetric(cross_product_algebra(), parse_map("x,y | (x*y)*x"))


def test_skew_of_product_map_fails_with_first_violation():
    # f(x, y) = x*y is antisymmetric; f(x,y) = J(x,y,c)-style with an
    # asymmetric map should fail.  Use f(x,y,z) = (x*y)*z on the cross
    # product algebra: swapping y,z is not a symmetry.
    cross = cross_product_algebra()
    report = check_skew_symmetric(cross, parse_map("x,y,z | (x*y)*z", name="assoc"))
    assert report.status == "fails"
    cx = report.counterexample
    assert cx.transposition is not None
    # first violation in lexicographic (tuple, transposition) order:
    # f(0,0,1) = (e0 e0) e1 = 0 but f under swap (1,2) -> f(0,1,0) = e2*e0 = e1
    assert cx.indices == (0, 0, 1)
    assert cx.transposition == (1, 2)
    assert not cx.residual.is_zero()


def test_product_map_is_skew_in_two_arguments():
    cross = cross_product_algebra()
    report = check_skew_symmetric(cross, parse_map("x,y | x*y", name="mul"))
    assert report.ok
    assert report.tuples_checked == 9


def test_skew_maps_on_second_type_zoo(animals):
    """On every zoo algebra satisfying the second-type pair, the three
    Jacobian-derived maps are skew-symmetric (the 5-argument map is checked
    on the smaller members; the 23-dim case is covered by acceptance)."""
    catalog = builtin_catalog()
    xi = parse_map("x1,x2,x3,x4 | J(x1,x2,x3*x4)", name="xi")
    zeta = parse_map("x1,x2,x3,x4 | J(x1,x2,x3)*x4", name="zeta")
    sigma = parse_map("x1,x2,x3,x4,x5 | J(x1*x2,x3*x4,x5)", name="sigma")
    for name, algebra in animals.items():
        if name == "second_type_23" or algebra.dim > 23:
            continue  # the 23-dim case is the acceptance criterion
        if not (
            check_identity(algebra, catalog["second_type_3a"].identity).ok
            and check_identity(algebra, catalog["second_type_3b"].identity).ok
        ):
            continue
        assert check_skew_symmetric(algebra, xi).ok, name
        assert check_skew_symmetric(algebra, zeta).ok, name
        assert check_skew_symmetric(algebra, sigma).ok, name


def test_random_element_is_seed_deterministic(atilde):
    a = random_element(atilde, random.Random(42))
    b = random_element(atilde, random.Random(42))
    assert a == b


def test_degenerate_identities():
    cross = cross_product_algebra()
    trivial = parse_identity("t : x,y | x*y = x*y")
    report = check_identity(cross, trivial)
    assert report.ok and report.tuples_checked == 9


def test_pool_size_is_capped_by_cores_and_first_axis(monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
    assert engine._pool_size(100_000, 30) == 4
    assert engine._pool_size(2, 30) == 2
    assert engine._pool_size(100_000, 3) == 3
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    assert engine._pool_size(8, 30) == 1


def test_a_huge_jobs_value_asks_for_a_capped_pool(force_pool, monkeypatch):
    sizes = []

    class Context:
        """multiprocessing's pool protocol, run in this process: no worker starts."""

        def Pool(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)
            return contextlib.nullcontext(types.SimpleNamespace(imap=map))

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    monkeypatch.setattr(engine, "_WORKER_STATE", None)
    oct7 = octonion_malcev()
    ident = catalog_identity("first_type_4")
    pooled = check_identity(oct7, ident, jobs=100_000)
    assert sizes == [min(os.cpu_count() or 1, oct7.dim)]
    assert _outcome(pooled) == _outcome(check_identity(oct7, ident, jobs=1))


def test_an_unpruned_scan_over_the_bound_is_refused_before_it_starts(atilde, monkeypatch):
    oct7 = octonion_malcev()  # not nilpotent: no class, every tuple is scanned
    jacobi = catalog_identity("jacobi")
    ident = parse_identity("d : x,y,z | x*y = 0")  # z has degree 0: no pruning
    heis = heisenberg_algebra()
    monkeypatch.setattr(engine, "MAX_UNPRUNED_TUPLES", 7 ** 3)
    assert check_identity(oct7, jacobi).tuples_checked < 7 ** 3
    assert check_identity(heis, ident, jobs=2).status == "fails"
    product = parse_map("x,y,z | (x*y)*z")
    assert check_skew_symmetric(oct7, product).status == "fails"
    # a pruned scan may face more tuples: the bound is on unpruned ones
    assert check_identity(atilde, catalog_identity("malcev")).tuples_checked == 23 ** 4

    def no_scan(*args):
        raise AssertionError("a scan started past the bound")

    monkeypatch.setattr(engine, "_scan", no_scan)
    monkeypatch.setattr(engine, "_pool", no_scan)
    monkeypatch.setattr(engine, "_PARALLEL_THRESHOLD", 1)
    monkeypatch.setattr(engine, "MAX_UNPRUNED_TUPLES", 7 ** 3 - 1)
    for jobs in (1, 2):
        with pytest.raises(ScanBudgetExceeded,
                           match=r"^jacobi: .* 343 basis tuples \(7\^3\) exceeds the bound of 342$"):
            check_identity(oct7, jacobi, jobs=jobs)
    with pytest.raises(ScanBudgetExceeded, match=r"^map: .* 343 basis tuples"):
        check_skew_symmetric(oct7, product)
    monkeypatch.setattr(engine, "MAX_UNPRUNED_TUPLES", 26)
    with pytest.raises(ScanBudgetExceeded, match=r"27 basis tuples \(3\^3\)"):
        check_identity(heis, ident, jobs=2)


def test_the_scan_bound_sits_above_the_largest_unpruned_scan():
    # 4 variables on the 30-dim direct sum octonion_malcev + second_type_23
    assert engine.MAX_UNPRUNED_TUPLES > 30 ** 4
