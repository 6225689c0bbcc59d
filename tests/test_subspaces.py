import copy
import functools
import pickle
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malcevlab import (
    Algebra,
    DimensionMismatch,
    Element,
    NotAnIdealError,
    Subspace,
    UnsettledChainError,
    catalog_identity,
    check_identity,
    full_space,
    ideal_closure,
    is_nilpotent,
    jacobian_span,
    lie_kernel,
    power_chain,
    power_jacobian_spans,
    product_subspace,
    quotient_algebra,
    span,
    second_type_example,
    subalgebra_generate,
)
from malcevlab.algebra import MAX_DIM, dense
from malcevlab.construct import (
    ZOO,
    abelian_algebra,
    cross_product_algebra,
    heisenberg_algebra,
    octonion_malcev,
)
from malcevlab import verify
from malcevlab.engine import random_element
from malcevlab.subspaces import (
    MAX_CHAIN, _UNPRUNED, _jacobian_triples, _partners, filtration, stable_powers)
from malcevlab.verify import _power_triples, corrupted_psi_entries
from conftest import count_products
from test_integral import rebased

# the benchmark's change of basis and generator triples (rational_rebased)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from rebase import Rebased, seeded_basis  # noqa: E402
from workloads import HALF, STRUCTURE_PATTERN, TRIPLE_SEED, TRIPLES  # noqa: E402


def random_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_span_basics():
    cross = cross_product_algebra()
    assert span(cross, []).dim == 0
    e0 = cross.basis_element(0)
    assert span(cross, [e0, e0.scale(2)]).dim == 1
    assert span(cross, cross.basis()).dim == 3


def test_rref_is_canonical_against_sympy():
    rng = random.Random(5)
    for trial in range(25):
        rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        mine = Subspace(len(rows[0]), rows)
        ref, pivots = sympy.Matrix(rows).rref()
        expected = [
            tuple(Fraction(str(x)) for x in ref.row(i))
            for i in range(ref.rows)
            if any(ref.row(i))
        ]
        got = [tuple(Fraction(c) for c in r) for r in mine.rows]
        assert got == expected, trial
        assert mine.pivots == tuple(pivots)[: mine.dim]


def test_subspace_equality_is_canonical():
    rows_a = [[1, 2, 0], [0, 0, 1]]
    rows_b = [[2, 4, 2], [0, 0, -3], [1, 2, 1]]
    assert Subspace(3, rows_a) == Subspace(3, rows_b)
    assert hash(Subspace(3, rows_a)) == hash(Subspace(3, rows_b))


def test_full_space_of_the_largest_dim_is_built_without_elimination(capped_python):
    # its rows are the basis itself: MAX_DIM rows of one entry each, where
    # dense rows would need MAX_DIM^2 coordinates
    done = capped_python("-c", (
        "import time\n"
        "from malcevlab.algebra import MAX_DIM\n"
        "from malcevlab.construct import abelian_algebra\n"
        "from malcevlab import full_space\n"
        "algebra = abelian_algebra(MAX_DIM)\n"
        "start = time.perf_counter()\n"
        "space = full_space(algebra)\n"
        "print(space.dim, space.pivots == tuple(range(MAX_DIM)), time.perf_counter() - start)\n"
    ))
    assert done.returncode == 0, done.stderr
    dim, pivots, seconds = done.stdout.split()
    assert (int(dim), pivots) == (MAX_DIM, "True")
    assert float(seconds) < 1.0


def test_membership_and_inclusion():
    s = Subspace(3, [[1, 0, 1], [0, 1, 0]])
    assert s.contains([2, 3, 2])
    assert not s.contains([1, 0, 0])
    assert s.contains_subspace(Subspace(3, [[1, 1, 1]]))
    assert not s.contains_subspace(Subspace(3, [[1, 0, 0]]))
    assert full_space(cross_product_algebra()).contains_subspace(s)


def test_product_subspace_basics(atilde):
    zero = Subspace(atilde.dim)
    whole = full_space(atilde)
    assert product_subspace(atilde, whole, zero).dim == 0
    # B2 x B2 products land exactly on the central line
    b2 = span(atilde, [atilde.basis_element(i) for i in range(4, 10)])
    out = product_subspace(atilde, b2, b2)
    assert out.dim == 1
    assert out.contains(atilde.basis_element(22))
    # B1 x B1 products give exactly B2
    b1 = span(atilde, [atilde.basis_element(i) for i in range(4)])
    assert product_subspace(atilde, b1, b1) == b2


def test_power_chain_values(atilde, base22):
    assert [s.dim for s in power_chain(atilde, 5)] == [23, 19, 13, 1, 0]
    assert [s.dim for s in power_chain(base22, 4)] == [22, 18, 12, 0]
    assert [s.dim for s in power_chain(abelian_algebra(4), 3)] == [4, 0, 0]


def test_one_power_chain_per_algebra():
    # the stopped chain (the filtration's, A^1..A^5 = 0) and power_chain
    # read one cached chain: its 60 products, of partner rows only, are
    # made once, either way
    at = second_type_example()
    assert count_products(filtration, at) == 60
    assert count_products(power_chain, at, 5) == 0
    at = second_type_example()
    assert count_products(power_chain, at, 3) + count_products(power_chain, at, 5) == 60
    assert count_products(stable_powers, at) == 0
    assert power_chain(at, 6)[:5] == list(stable_powers(at))
    assert power_chain(at, 6)[5].is_zero()


def test_power_chain_is_descending(animals):
    for name, algebra in animals.items():
        chain = power_chain(algebra, min(algebra.dim + 2, 7))
        for bigger, smaller in zip(chain, chain[1:]):
            assert bigger.contains_subspace(smaller), name


# -- the power chain's stop rule -------------------------------------------------


def plateau_algebra() -> Algebra:
    """e1 e2 = -e4, e1 e3 = e2, e2 e4 = -e0: powers of dim 5, 3, 2, 1, 1, 0.
    A^4 = A^5 is a plateau that ends: a repeated power is not the end."""
    return Algebra(5, None, {(1, 2): {4: -1}, (1, 3): {2: 1}, (2, 4): {0: -1}})


def fibonacci_algebra(n: int) -> Algebra:
    """e_k e_(k+1) = e_(k+2) on n basis vectors: nilpotent, with a class
    that grows exponentially with n (long plateaus)."""
    return Algebra(n, None, {(k, k + 1): {k + 2: 1} for k in range(n - 2)})


def naive_powers(algebra: Algebra, k: int) -> list:
    """A^1..A^k, A^n the sum of A^i A^j over every i + j = n: no stop rule,
    no cache, no use of anticommutativity."""
    chain = [full_space(algebra)]
    for n in range(2, k + 1):
        power = Subspace(algebra.dim)
        for i in range(1, n):
            power = power.add(product_subspace(algebra, chain[i - 1], chain[n - i - 1]))
        chain.append(power)
    return chain


def test_a_plateau_does_not_end_the_chain():
    algebra = plateau_algebra()
    assert [s.dim for s in stable_powers(algebra)] == [5, 3, 2, 1, 1, 0]
    assert is_nilpotent(algebra) == (True, 6)
    assert filtration(algebra)[1] == 6
    assert [s.dim for s in power_chain(algebra, 8)] == [5, 3, 2, 1, 1, 0, 0, 0]


def test_power_chain_past_its_end_forms_no_product():
    algebra = plateau_algebra()
    assert count_products(power_chain, algebra, 2) > 0  # builds the whole chain
    assert count_products(power_chain, algebra, MAX_CHAIN) == 0
    octonions = octonion_malcev()
    chain = power_chain(octonions, 9)
    assert count_products(power_chain, octonions, 9) == 0
    assert len(stable_powers(octonions)) == 2 and all(s == chain[0] for s in chain)


def test_zoo_chains_end_where_they_stop_descending(animals):
    # a strictly descending chain ends at zero; only the octonions and the
    # cross product (A^2 = A) settle at a nonzero power
    for name, algebra in animals.items():
        dims = [s.dim for s in stable_powers(algebra)]
        if name in ("octonion_malcev", "cross_product"):
            assert dims == [algebra.dim] * 2, name
        else:
            assert dims[-1] == 0 and dims == sorted(set(dims), reverse=True), name


def test_class_grows_exponentially_and_the_chain_is_capped():
    assert is_nilpotent(fibonacci_algebra(8)) == (True, 22)
    big = fibonacci_algebra(12)  # class 145
    assert len(stable_powers(big)) == MAX_CHAIN
    assert filtration(big)[1] is None  # no class: the identity scan is not pruned
    assert len(power_chain(big, MAX_CHAIN)) == MAX_CHAIN
    with pytest.raises(UnsettledChainError):
        is_nilpotent(big)
    with pytest.raises(UnsettledChainError):
        power_chain(big, MAX_CHAIN + 1)
    assert issubclass(UnsettledChainError, ValueError)


@st.composite
def small_algebras(draw):
    """Anticommutative algebras of dim 2..6 with a few nonzero basis
    products, each a small-int multiple of one basis element outside its
    pair: long power chains, and plateaus that end, are common there."""
    dim = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    products = {}
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=dim)):
        others = [c for c in range(dim) if c not in (a, b)]
        if others:
            products[(a, b)] = {draw(st.sampled_from(others)): draw(st.sampled_from((-2, -1, 1, 2)))}
    return Algebra(dim, None, products)


@settings(max_examples=200, deadline=None)
@given(small_algebras())
@example(plateau_algebra())
def test_power_chain_matches_the_naive_powers(algebra):
    k = len(stable_powers(algebra)) + 4
    naive = naive_powers(algebra, k)
    assert power_chain(algebra, k) == naive
    zero = [n for n, power in enumerate(naive, start=1) if power.is_zero()]
    assert is_nilpotent(algebra) == ((True, zero[0]) if zero else (False, None))


def test_lie_kernel_on_lie_algebras():
    for algebra in (cross_product_algebra(), heisenberg_algebra(), abelian_algebra(3)):
        assert lie_kernel(algebra) == full_space(algebra)


def test_lie_kernel_of_example(atilde):
    kernel = lie_kernel(atilde)
    assert kernel.dim == 13
    # equals A^3: the span of the 12 degree-3 words plus the central line
    assert kernel == span(atilde, [atilde.basis_element(i) for i in range(10, 23)])
    assert kernel.contains(atilde.basis_element(22))


def _sympy_lie_kernel(algebra):
    """N(A) as the sympy nullspace of J(e_i, e_j, e_k) over every ordered
    (i, j, k), each J through the dense Algebra.jacobian."""
    rows = []
    for j in range(algebra.dim):
        for k in range(j + 1, algebra.dim):
            columns = {}
            for i in range(algebra.dim):
                jac = algebra.jacobian(
                    algebra.basis_element(i), algebra.basis_element(j), algebra.basis_element(k)
                )
                for c, val in jac.nonzero():
                    columns.setdefault(c, [0] * algebra.dim)[i] = val
            rows.extend(columns.values())
    if not rows:
        return full_space(algebra)
    nullspace = sympy.Matrix(rows).nullspace()
    return Subspace(algebra.dim, [[Fraction(str(x)) for x in v] for v in nullspace])


def test_lie_kernel_matches_sympy_nullspace(atilde):
    assert lie_kernel(atilde) == _sympy_lie_kernel(atilde)


def _zoo_algebra(animals, name):
    """A zoo algebra; 'NAME@rebased' is NAME in the basis f_i = e_i +-
    e_(i-1)/2, the rational_rebased pattern, which mixes the grading;
    'NAME@halved' is NAME in the basis f_i = e_i/2, which keeps it sparse."""
    base, _, rebased = name.partition("@")
    algebra = animals[base]
    if not rebased:
        return algebra
    if rebased == "halved":
        halves = [[HALF if i == j else 0 for j in range(algebra.dim)] for i in range(algebra.dim)]
        return Rebased(algebra, halves).algebra
    pattern = tuple((i + 1, i) for i in range(algebra.dim - 1))
    return Rebased(algebra, seeded_basis(algebra.dim, pattern, HALF, random.Random(name))).algebra


SMALL_ZOO = ["abelian_3", "cross_product", "heisenberg", "octonion_malcev", "free_2_3", "free_3_3"]


# heisenberg + abelian(3): kernel columns that no constraint mentions
HEISENBERG_PLUS_ABELIAN = Algebra(6, None, {(0, 1): {2: 1}}, name="heisenberg+abelian_3")


@pytest.mark.parametrize("name", SMALL_ZOO + [
    "octonion_malcev@rebased", "quotient_22@rebased", HEISENBERG_PLUS_ABELIAN.name])
def test_lie_kernel_alternation_matches_sympy(animals, name):
    # lie_kernel reads each unordered triple's J once, with the sign of
    # the permutation; the oracle computes every ordered one
    if name == HEISENBERG_PLUS_ABELIAN.name:
        algebra = HEISENBERG_PLUS_ABELIAN
    else:
        algebra = _zoo_algebra(animals, name)
    assert lie_kernel(algebra) == _sympy_lie_kernel(algebra), name


def test_jacobian_span(atilde):
    whole = full_space(atilde)
    jspan = jacobian_span(atilde, whole, whole, whole)
    assert jspan.dim == 5
    # contains an element whose product with x4 is -3v
    j = atilde.jacobian(*(atilde.basis_element(i) for i in range(3)))
    assert jspan.contains(j)
    assert not atilde.multiply(j, atilde.basis_element(3)).is_zero()
    for algebra in (cross_product_algebra(), heisenberg_algebra()):
        w = full_space(algebra)
        assert jacobian_span(algebra, w, w, w).dim == 0


def test_ideal_closure(atilde):
    whole = full_space(atilde)
    assert ideal_closure(atilde, whole) == whole
    assert ideal_closure(atilde, Subspace(atilde.dim)).dim == 0
    jspan = jacobian_span(atilde, whole, whole, whole)
    ideal = ideal_closure(atilde, jspan)
    assert ideal.contains_subspace(jspan)
    assert product_subspace(atilde, ideal, ideal).dim == 0
    # closed under multiplication
    assert ideal.contains_subspace(product_subspace(atilde, ideal, whole))


def test_quotient_by_zero_and_full(atilde):
    q_full, _ = quotient_algebra(atilde, full_space(atilde))
    assert q_full.dim == 0
    q_zero, project = quotient_algebra(atilde, Subspace(atilde.dim))
    assert q_zero.dim == atilde.dim
    assert q_zero.table == atilde.table
    e5 = atilde.basis_element(5)
    assert project(e5) == e5


def test_quotient_rejects_non_ideal(atilde):
    not_ideal = span(atilde, [atilde.basis_element(0)])
    with pytest.raises(NotAnIdealError):
        quotient_algebra(atilde, not_ideal)


def _first_escape(algebra, space):
    """(row index, basis index, row * e_j) for the first row * e_j outside
    space, probing every basis vector in order; None for an ideal."""
    for t, row in enumerate(space.rows):
        for j in range(algebra.dim):
            prod = algebra.multiply(Element(row), algebra.basis_element(j))
            if not space.contains(prod):
                return t, j, prod
    return None


@functools.lru_cache(maxsize=None)
def _ideal_test_algebra(name, rebase):
    algebra = ZOO[name]()
    return rebased(algebra, random.Random(name)) if rebase else algebra


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(ZOO)), rebase=st.booleans(), data=st.data())
def test_the_ideal_test_reports_the_first_escape_a_probe_finds(name, rebase, data):
    # the ideal test forms row * e_j only for the partners j of the row's
    # keys; every other product is zero, so the first escape is the same
    algebra = _ideal_test_algebra(name, rebase)
    dim = algebra.dim
    coords = st.lists(st.tuples(st.integers(0, dim - 1), st.integers(-3, 3)), max_size=3)
    vectors = data.draw(st.lists(coords, min_size=1, max_size=3))
    space = span(algebra, [Element(dense(dict(v), dim)) for v in vectors])
    expected = _first_escape(algebra, space)
    if expected is None:
        quotient, _ = quotient_algebra(algebra, space)
        assert quotient.dim == dim - space.dim
        return
    with pytest.raises(NotAnIdealError) as info:
        quotient_algebra(algebra, space)
    err = info.value
    assert (err.row_index, err.basis_index, err.escaping) == expected


def test_quotient_forms_no_product_for_its_table(atilde):
    # the table is the residuals of the stored constants among the
    # complement: the 6 products are the ideal test's, row * e_j for the
    # partners j of each of the kernel's 13 rows (probing every basis
    # vector and every complement pair would form 13 * 23 + C(10, 2) = 344)
    kernel = lie_kernel(atilde)
    assert count_products(quotient_algebra, atilde, kernel) == 6
    assert sum(len(_partners(atilde, r)) for r in kernel._rows) == 6
    quotient, project = quotient_algebra(atilde, kernel)
    for i in range(atilde.dim):
        for j in range(i + 1, atilde.dim):
            u, v = atilde.basis_element(i), atilde.basis_element(j)
            assert project(atilde.multiply(u, v)) == quotient.multiply(project(u), project(v))


def test_quotient_by_kernel_is_nilpotent_lie(atilde):
    from malcevlab import is_nilpotent, parse_identity

    kernel = lie_kernel(atilde)
    quotient, project = quotient_algebra(atilde, kernel)
    assert quotient.dim == 10
    assert check_identity(quotient, catalog_identity("jacobi")).ok
    # products x(xy) land in the kernel, so the quotient satisfies x(xy) = 0
    assert check_identity(quotient, parse_identity("xxy : x,y | x*(x*y) = 0")).ok
    nil, cls = is_nilpotent(quotient)
    assert nil and cls == 3
    # projection is an algebra map on basis pairs
    for i in range(0, atilde.dim, 5):
        for j in range(i + 1, atilde.dim, 5):
            u, v = atilde.basis_element(i), atilde.basis_element(j)
            assert project(atilde.multiply(u, v)) == quotient.multiply(project(u), project(v))


def test_subalgebra_generate_single_element(atilde):
    rng = random.Random(3)
    from malcevlab.engine import random_element

    g = random_element(atilde, rng)
    sub, restricted = subalgebra_generate(atilde, [g])
    assert sub.dim == 1
    assert restricted.dim == 1
    assert restricted.table == {}


def test_subalgebra_generate_three_generators(atilde):
    sub, restricted = subalgebra_generate(atilde, [atilde.basis_element(i) for i in range(3)])
    assert sub.dim == 9
    assert restricted.labels == [
        "x1", "x2", "x3", "[x1,x2]", "[x1,x3]", "[x2,x3]",
        "[x1,x2,x3]", "[x1,x3,x2]", "[x2,x3,x1]",
    ]
    assert check_identity(restricted, catalog_identity("first_type_4")).ok


def test_subalgebra_generate_all_four(atilde):
    sub, restricted = subalgebra_generate(atilde, [atilde.basis_element(i) for i in range(4)])
    assert sub.dim == 23  # >= 4 + 6 + 12, and the central line is reached


def test_proposition1_products_land_in_kernel(animals):
    """Pairs (y, z) with J(y, z, A) = 0 have yz in the Lie kernel; vacuous
    pairs are skipped and the non-vacuous count is reported."""
    catalog_ok = ("abelian_1", "abelian_2", "abelian_3", "cross_product",
                  "heisenberg", "second_type_23", "quotient_22", "free_2_3", "free_3_3")
    for name in catalog_ok:
        algebra = animals[name]
        kernel = lie_kernel(algebra)
        basis = [algebra.basis_element(i) for i in range(algebra.dim)]
        non_vacuous = 0
        for y in range(algebra.dim):
            for z in range(y + 1, algebra.dim):
                if any(
                    not algebra.jacobian(basis[y], basis[z], basis[a]).is_zero()
                    for a in range(algebra.dim)
                ):
                    continue
                non_vacuous += 1
                assert kernel.contains(algebra.multiply(basis[y], basis[z])), (name, y, z)
        print(f"prop1[{name}]: {non_vacuous} non-vacuous pairs")
        if algebra.dim > 1:
            assert non_vacuous > 0, name


def test_proposition2_fourth_power_in_kernel(animals):
    from malcevlab import builtin_catalog

    catalog = builtin_catalog()
    for name, algebra in animals.items():
        if algebra.dim > 23:
            continue
        if not (
            check_identity(algebra, catalog["second_type_3a"].identity).ok
            and check_identity(algebra, catalog["second_type_3b"].identity).ok
        ):
            continue
        chain = power_chain(algebra, 4)
        assert lie_kernel(algebra).contains_subspace(chain[3]), name


# -- the integer echelon against sympy -----------------------------------------

ENTRY = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),  # integral Fractions are not ints
    st.fractions(-10**6, 10**6, max_denominator=10**6),
)
NONZERO = st.fractions(-50, 50, max_denominator=50).filter(bool)


@st.composite
def matrices(draw, width=None):
    """Rows over Q with wide entries, plus scaled (often negated)
    duplicates of some of them, in a random order."""
    if width is None:
        width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRY, min_size=width, max_size=width), min_size=1, max_size=5))
    for row in draw(st.lists(st.sampled_from(rows), max_size=3)):
        k = draw(NONZERO)
        rows.append([k * c for c in row])
    return draw(st.permutations(rows))


def _sympy_rref(rows):
    ref, pivots = sympy.Matrix(rows).rref()
    canonical = [
        tuple(Fraction(int(x.p), int(x.q)) for x in ref.row(i))
        for i in range(ref.rows)
        if any(ref.row(i))
    ]
    return canonical, tuple(pivots)[: len(canonical)]


@st.composite
def echelon_cases(draw):
    width = draw(st.integers(1, 6))
    left = draw(matrices(width))
    right = draw(matrices(width))
    vec = draw(st.lists(ENTRY, min_size=width, max_size=width))
    return left, right, vec


# [2, 1] is an echelon row with pivot 2, and 3 is not a multiple of it:
# [3, 0] is eliminated as 2*[3, 0] - 3*[2, 1], the a != 1 branch
@example(([[2, 1], [3, 0]], [[0, 1]], [Fraction(1, 3), Fraction(5, 7)]))
@example(([[-4, 6, 0], [2, -3, 1]], [[6, 9, 0]], [1, 1, 1]))
@settings(max_examples=150, deadline=None)
@given(echelon_cases())
def test_integer_echelon_matches_sympy(case):
    left, right, vec = case
    width = len(vec)
    space = Subspace(width, left)
    canonical, pivots = _sympy_rref(left)
    assert [tuple(Fraction(c) for c in r) for r in space.rows] == canonical
    assert space.pivots == pivots
    # the exact residual: vec minus its pivot coordinates times the rows
    residual = [Fraction(c) for c in vec]
    for row, p in zip(canonical, pivots):
        c = residual[p]
        residual = [x - c * y for x, y in zip(residual, row)]
    assert space.reduce(vec) == residual
    assert space.contains(vec) == (not any(residual))
    member = [sum((Fraction(c) * r[k] for c, r in zip(vec, left)), Fraction(0)) for k in range(width)]
    assert space.contains(member)
    other = Subspace(width, right)
    both, _ = _sympy_rref(left + right)
    # the stored rows are shared with every echelon built from the space:
    # adding to it and reducing by it mutate none of them
    stored = copy.deepcopy(space._rows + other._rows)
    assert [tuple(Fraction(c) for c in r) for r in space.add(other).rows] == both
    space.reduce(vec)
    assert space._rows + other._rows == stored
    assert space.contains_subspace(other) == (len(both) == len(canonical))
    assert other.contains_subspace(space) == (len(both) == other.dim)
    # the same span from its rows in reverse order, scaled
    scaled = [[Fraction(-(t + 2), 3) * c for c in row] for t, row in enumerate(reversed(left))]
    assert Subspace(width, scaled) == space and hash(Subspace(width, scaled)) == hash(space)
    for twin in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space)):
        assert twin == space and hash(twin) == hash(space) and twin.rows == space.rows


# -- alternation and product counts --------------------------------------------

def _ordered_jacobian_span(algebra, *spaces):
    """J over every ordered row triple, each through the dense
    Algebra.jacobian."""
    us, vs, ws = ([Element(r) for r in s.rows] for s in spaces)
    return Subspace(algebra.dim, [algebra.jacobian(u, v, w) for u in us for v in vs for w in ws])


@pytest.mark.parametrize("name", SMALL_ZOO + ["octonion_malcev@rebased"])
def test_jacobian_span_alternation_on_the_zoo(animals, name):
    algebra = _zoo_algebra(animals, name)
    rng = random.Random(name)
    full = full_space(algebra)
    low = span(algebra, [random_element(algebra, rng) for _ in range(2)])
    high = span(algebra, [random_element(algebra, rng) for _ in range(3)])
    cases = [(full, full, full), (low, low, full), (full, low, low), (low, full, low),
             (low, high, full), (high, high, high)]
    for spaces in cases:
        assert jacobian_span(algebra, *spaces) == _ordered_jacobian_span(algebra, *spaces), name


def test_jacobian_span_alternation_on_the_power_chain(atilde):
    chain = power_chain(atilde, 4)
    # verify's power triples (i <= j <= k), and one with only u = w
    for i, j, k in list(_power_triples()) + [(1, 2, 1)]:
        spaces = (chain[i - 1], chain[j - 1], chain[k - 1])
        assert jacobian_span(atilde, *spaces) == _ordered_jacobian_span(atilde, *spaces), (i, j, k)


# the five equality patterns of (U, V, W), as indices into the distinct spaces
EQUALITY_PATTERNS = [(0, 1, 2), (0, 0, 1), (0, 1, 1), (0, 1, 0), (0, 0, 0)]
_REBASED: dict = {}


@st.composite
def sparse_spans(draw, algebra):
    """Spans of up to three sparse elements: on a nilpotent algebra most of
    their pair products are zero."""
    coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    gens = draw(st.lists(
        st.dictionaries(st.integers(0, algebra.dim - 1), coeff, min_size=1, max_size=3),
        max_size=3))
    return span(algebra, [algebra._from_sparse(g) for g in gens])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["octonion_malcev@rebased", "quotient_22@rebased", "quotient_22@halved"]),
       pattern=st.sampled_from(EQUALITY_PATTERNS), data=st.data())
def test_jacobian_span_alternation_on_rebased_spans(animals, name, pattern, data):
    if name not in _REBASED:
        _REBASED[name] = _zoo_algebra(animals, name)
    algebra = _REBASED[name]
    assert algebra.integral_model()[1] > 1  # products run in the integral model
    distinct = [data.draw(sparse_spans(algebra)) for _ in range(max(pattern) + 1)]
    spaces = [distinct[t] for t in pattern]
    assert jacobian_span(algebra, *spaces) == _ordered_jacobian_span(algebra, *spaces)


def test_jacobian_span_from_the_third_pair_alone():
    # e1 e3 = e4 and e4 e2 = e5: J(e1, e2, e3) = (e3 e1) e2 = -e5 is the
    # only nonzero J, and of its three pairs only (e3, e1) has a product
    algebra = Algebra(5, None, {(0, 2): {3: 1}, (1, 3): {4: -1}})
    full = full_space(algebra)
    assert jacobian_span(algebra, full, full, full) == span(algebra, [algebra.basis_element(4)])
    # with one basis vector per space, e2 has no product with e1 or e3,
    # the other rows of the call, yet takes part through their product
    e1, e2, e3 = (span(algebra, [e]) for e in algebra.basis()[:3])
    for spaces in [(full, full, full), (full, span(algebra, algebra.basis()[1:2]), full),
                   (e2, e1, e3), (e1, e2, e3), (e1, e3, e2)]:
        assert jacobian_span(algebra, *spaces) == _ordered_jacobian_span(algebra, *spaces)


def test_product_counts():
    at = second_type_example()
    full = full_space(at)
    # the power chain and the weights are built once per algebra: built
    # here, so only the Jacobian layer is counted
    filtration(at)
    # e_a e_b is read from the structure constants, and one second product
    # is formed per nonzero pair and third row whose weights sum below the
    # class 5 and that is a partner of the keys of the pair or its product:
    # the 6 pairs of weights (1, 1) take 7 of the 8 other rows of weight
    # <= 2 (not the row of their own product), the 12 of weights (1, 2)
    # the 3 other rows of weight 1; jacobian_span and lie_kernel read the
    # same triples
    nonzero_pairs = len(at.table)
    assert nonzero_pairs == 27
    assert count_products(jacobian_span, at, full, full, full) == 6 * 7 + 12 * 3 == 78
    assert count_products(lie_kernel, at) == 6 * 7 + 12 * 3 == 78
    # rational_rebased's 16 triples: the closure's last pass makes the table
    rebased = Rebased(at, seeded_basis(at.dim, STRUCTURE_PATTERN, HALF, random.Random(3)))
    rng = random.Random(TRIPLE_SEED)
    triples = [[Element(rebased.from_original(random_element(at, rng))) for _ in range(3)]
               for _ in range(TRIPLES)]
    algebra = rebased.algebra
    algebra.integral_model()
    assert count_products(lambda: [subalgebra_generate(algebra, t) for t in triples]) == 2208


# -- the structure suite's spans in one pass -------------------------------------

TRIPLES_OF_FOUR = list(_power_triples())


def _direct_spans(algebra, chain, triples):
    """The pass's reference: one jacobian_span call per power triple."""
    return {(i, j, k): jacobian_span(algebra, chain[i - 1], chain[j - 1], chain[k - 1])
            for i, j, k in triples}


@pytest.mark.parametrize("name", list(ZOO) + ["corrupt_psi"])
def test_power_jacobian_spans_equal_the_direct_spans(animals, name):
    algebra = (second_type_example(corrupted_psi_entries()) if name == "corrupt_psi"
               else animals[name])
    chain = power_chain(algebra, 4)
    assert power_jacobian_spans(algebra, chain, TRIPLES_OF_FOUR) == \
        _direct_spans(algebra, chain, TRIPLES_OF_FOUR), name


@st.composite
def descending_chains(draw, algebra):
    """Four descending spans V1 >= V2 >= V3 >= V4, each the span of its
    own sparse generators and those of the deeper ones: the pass needs
    only a descending chain, and these rows are not basis vectors."""
    coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    gens = [draw(st.lists(
        st.dictionaries(st.integers(0, algebra.dim - 1), coeff, min_size=1, max_size=3),
        max_size=3)) for _ in range(4)]
    return [span(algebra, [algebra._from_sparse(g) for level in gens[m:] for g in level])
            for m in range(4)]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["octonion_malcev@rebased", "quotient_22@rebased", "quotient_22@halved"]),
       power=st.booleans(), data=st.data())
def test_power_jacobian_spans_on_rebased_algebras(animals, name, power, data):
    # the power chain of a non-graded basis, or a drawn descending chain
    if name not in _REBASED:
        _REBASED[name] = _zoo_algebra(animals, name)
    algebra = _REBASED[name]
    chain = power_chain(algebra, 4) if power else data.draw(descending_chains(algebra))
    # in any order: J(U, V, W) is symmetric in its spaces up to sign
    index = st.integers(1, 4)
    triples = data.draw(st.lists(st.tuples(index, index, index), min_size=1, unique=True))
    assert power_jacobian_spans(algebra, chain, triples) == _direct_spans(algebra, chain, triples)


def test_power_jacobian_spans_product_count():
    # the adapted basis of the graded example is its basis: pair products
    # are structure-constant lookups, and one second product per nonzero
    # pair and third element that completes it, as in lie_kernel
    # (test_product_counts)
    at = second_type_example()
    chain = power_chain(at, 4)
    filtration(at)
    assert count_products(power_jacobian_spans, at, chain, TRIPLES_OF_FOUR) == 78


def _completed(algebra, x, y, z) -> bool:
    """e_x e_y != 0, and e_z has a product with e_x, e_y or a key of e_x e_y."""
    xy = algebra.basis_product(x, y)
    return bool(xy) and any(algebra.basis_product(k, z) for k in (x, y, *xy))


def test_jacobian_triples_agree_on_basis_and_scaled_rows(animals):
    # basis rows read each pair product from the structure constants,
    # scaled rows form it: the same triples either way,
    # those with a nonzero pair that the third basis vector completes
    for name in SMALL_ZOO + ["quotient_22"]:
        algebra = animals[name]
        jac, from_table = _jacobian_triples(
            algebra, [{i: 1} for i in range(algebra.dim)], _UNPRUNED)
        _, from_products = _jacobian_triples(algebra, [{i: 2} for i in range(algebra.dim)], _UNPRUNED)
        brute = [(a, b, c) for a in range(algebra.dim) for b in range(a + 1, algebra.dim)
                 for c in range(b + 1, algebra.dim)
                 if any(_completed(algebra, x, y, z) for x, y, z in ((a, b, c), (a, c, b), (b, c, a)))]
        assert from_table == from_products == brute, name
        # every triple with J != 0 is among them
        nonzero_pair = [(a, b, c) for a in range(algebra.dim) for b in range(a + 1, algebra.dim)
                        for c in range(b + 1, algebra.dim)
                        if any(algebra.basis_product(x, y) for x, y in ((a, b), (a, c), (b, c)))]
        assert {t for t in nonzero_pair if jac(*t)} <= set(from_table), name


def test_power_jacobian_spans_from_the_third_pair_alone():
    # J(e1, e2, e3) = (e3 e1) e2 = -e5, and of its pairs only (e3, e1) has
    # a product; the adapted basis lists e1, e2, e3 last, in that order
    algebra = Algebra(5, None, {(0, 2): {3: 1}, (1, 3): {4: -1}})
    chain = power_chain(algebra, 4)
    spans = power_jacobian_spans(algebra, chain, TRIPLES_OF_FOUR)
    assert spans[(1, 1, 1)] == span(algebra, [algebra.basis_element(4)])
    assert spans == _direct_spans(algebra, chain, TRIPLES_OF_FOUR)


def test_power_jacobian_spans_rejects_an_index_outside_the_chain(atilde):
    chain = power_chain(atilde, 4)
    for bad in [(1, 1, 5), (0, 1, 1)]:
        with pytest.raises(ValueError, match=r"1\.\.4"):
            power_jacobian_spans(atilde, chain, [bad])
    with pytest.raises(DimensionMismatch):
        power_jacobian_spans(atilde, power_chain(octonion_malcev(), 4), [(1, 1, 1)])


def _structure_results(corrupt, spans=None):
    """The structure suite's results, with the pass replaced by spans if given."""
    session = verify._Session(0, 1, corrupt)
    if spans is None:
        return list(verify._check_structure_suite(session))
    with mock.patch.object(verify, "power_jacobian_spans", spans):
        return list(verify._check_structure_suite(session))


@pytest.mark.parametrize("corrupt", [False, True])
def test_structure_suite_results_equal_the_twenty_call_path(corrupt):
    assert _structure_results(corrupt) == _structure_results(corrupt, _direct_spans)


def test_structure_suite_cross_checks_the_pass():
    # a pass whose J(A,A,A) differs from the direct span fails the check
    # and adds one detail line
    def wrong(algebra, chain, triples):
        spans = _direct_spans(algebra, chain, triples)
        spans[(1, 1, 1)] = Subspace(algebra.dim)
        return spans

    good = {r.key: r for r in _structure_results(False)}
    bad = {r.key: r for r in _structure_results(False, wrong)}
    key = "structure.jacobian_span_vanishing"
    assert good[key].passed and not bad[key].passed
    assert bad[key].details[-1] == "direct J(A,A,A) dim: 5, differs from the pass"
    assert len(bad[key].details) == len(good[key].details) + 1


def test_lie_kernel_of_a_large_abelian_algebra_forms_no_product():
    # at the largest dim a file may declare: no constraint mentions any
    # column, so every solution is a unit row, stored with no elimination
    algebra = abelian_algebra(MAX_DIM)
    t0 = time.perf_counter()
    assert count_products(lie_kernel, algebra) == 0
    assert time.perf_counter() - t0 < 1.0
    assert lie_kernel(algebra) == full_space(algebra)


def test_lie_kernel_of_the_largest_non_nilpotent_file_forms_three_products():
    # cross_product + abelian(9,997): no class, so no weight skips a
    # triple, but a pair of rows 0, 1 and 2 is completed only by a
    # partner, so only J(e0, e1, e2) is evaluated
    algebra = Algebra.from_text(f"dim {MAX_DIM}\nsc 0 1 -> 2:1\nsc 1 2 -> 0:1\nsc 0 2 -> 1:-1\n")
    filtration(algebra)
    assert count_products(lie_kernel, algebra) <= 3
    kernel = lie_kernel(algebra)
    assert kernel == full_space(algebra)


def test_jacobian_span_of_the_largest_non_nilpotent_file():
    # cross_product + abelian(9,997): no class, so no weight skips a
    # triple, but only rows 0, 1 and 2 have a product; a nonzero J needs
    # two of them, so the C(dim, 2) row pairs are never all visited
    algebra = Algebra.from_text(f"dim {MAX_DIM}\nsc 0 1 -> 2:1\nsc 1 2 -> 0:1\nsc 0 2 -> 1:-1\n")
    full = full_space(algebra)
    t0 = time.perf_counter()
    assert jacobian_span(algebra, full, full, full).is_zero()
    assert time.perf_counter() - t0 < 1.0


def test_products_of_the_largest_non_nilpotent_file_form_only_partner_rows():
    # cross_product + abelian(9,997): A A multiplies only partner rows,
    # each unordered pair once, so it forms e0 e1, e0 e2 and e1 e2 (all
    # pairs would be 10^8 products); the closure of e0 forms e0 e_j for
    # its 2 partners, then the 6 partner pairs of <e0, e1, e2> and A
    algebra = Algebra.from_text(f"dim {MAX_DIM}\nsc 0 1 -> 2:1\nsc 1 2 -> 0:1\nsc 0 2 -> 1:-1\n")
    full = full_space(algebra)
    e0 = span(algebra, [algebra.basis_element(0)])
    cross = span(algebra, [algebra.basis_element(i) for i in range(3)])
    for fn, args, products in [(product_subspace, (full, full), 3), (ideal_closure, (e0,), 8)]:
        t0 = time.perf_counter()
        assert count_products(fn, algebra, *args) == products, fn.__name__
        assert time.perf_counter() - t0 < 1.0, fn.__name__
        assert fn(algebra, *args) == cross, fn.__name__


def test_power_chain_at_the_largest_dim_forms_no_product():
    # A^2 = A A forms e_j v only for the partners j of v's keys, and an
    # abelian algebra has none
    algebra = abelian_algebra(MAX_DIM)
    t0 = time.perf_counter()
    assert count_products(stable_powers, algebra) == 0
    assert time.perf_counter() - t0 < 1.0
    assert stable_powers(algebra) == (full_space(algebra), Subspace(MAX_DIM))
