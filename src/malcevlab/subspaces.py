"""Exact subspace calculus: canonical echelon subspaces, products, powers,
the nilpotency filtration, the Lie kernel, Jacobian spans, ideal closures,
quotients, and generated subalgebras.

A subspace is stored as its reduced row echelon form with no zero rows,
each row scaled to a primitive int vector with a positive pivot; that form
is unique, so two subspaces are equal iff their rows are identical.

A vector has one format here, from the product that multiply_sparse
returns to the stored echelon row: a sparse dict {column: value}.  Nothing
in the calculus forms a Fraction until a value leaves it.  A span does not
change when a vector is multiplied by a nonzero scalar, so:

- the echelon accumulator (_Echelon) eliminates by cross-multiplication
  through algebra.accumulate over sparse int rows, and a Subspace is its
  frozen view: it shares the rows as they are and divides each by its
  pivot only when its canonical rows (Subspace.sparse_rows, densified by
  Subspace.rows) are read;
- products run in the algebra's integral model A_D
  (Algebra.integral_model) on the stored int rows, and the products in A_D
  span what the products in the algebra span; a product goes straight to
  the echelon.

Dense vectors appear only at the boundary: Subspace.rows, the list that
Subspace.reduce returns, and Element or list inputs.  Only coordinates that
leave the calculus, a residual of Subspace.reduce and the structure
constants of a quotient or of a generated subalgebra, are divided once by
their known scale.

The power chain is built once per algebra, to where it provably settles.
Every product the calculus forms is found by one partner rule, read from
the algebra's structure-constant index (Algebra.partners): _holders maps
each key to the rows that hold it, and _partner_rows returns the rows
with a key among the partners of some keys; every other row has a zero
product with a vector on those keys.  _insert_products forms only the
products of partner rows, and a list times itself each unordered pair
once: product_subspace (and through it ideal_closure) and every term
A^i A^(n-i) of the power chain.  The quotient's ideal test forms row *
e_j only for the partners j of the row's keys.
Jacobians come from one enumerator (_jacobian_triples) and one kernel
(_Jacobians) whose pair products live for one call: a pair of rows is
formed only when they are partner rows, once (basis rows read it from
the structure constants), and a zero pair product skips its second
product.  A nonzero pair is completed only by a partner row of the keys
of the pair and of its product, and only when the three weights sum
below the class (_row_weights): a row's weight is the least filtration
weight among its keys, a lower bound on its power in any basis, and
J(A^a, A^b, A^c) lies in A^(a+b+c).  The weights and the class are the
algebra's cached filtration, never a chain given by a caller, which need
not be multiplicative.  lie_kernel, jacobian_span and
power_jacobian_spans all read that enumerator: jacobian_span keeps a
triple when its rows can be assigned to its three spaces, and the
structure suite's 20 spans J(A^i, A^j, A^k) share one call of
power_jacobian_spans, which evaluates each J of a basis adapted to the
power chain once and files it under every triple of powers it belongs
to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

from .algebra import Algebra, DimensionMismatch, Element, accumulate, dense, unscale


class NotAnIdealError(ValueError):
    """Quotient requested by a subspace that is not an ideal."""

    def __init__(self, row_index: int, basis_index: int, escaping: Element):
        super().__init__(
            f"not an ideal: (row {row_index}) * e_{basis_index} escapes the subspace"
        )
        self.row_index = row_index
        self.basis_index = basis_index
        self.escaping = escaping


class _Echelon:
    """Mutable integer reduced-row-echelon accumulator over sparse rows.

    Each row is a sparse int dict {column: value}, keyed in rows by its
    pivot (its least key): content gcd 1, a positive pivot, and no entry in
    another row's pivot column.  Divided by its pivot it is the canonical
    RREF row, and the canonical row times the lcm of its denominators is
    primitive too, so a row is that integral form: the rows of one span are
    unique.  Scaling a vector keeps its span, so a vector enters as its
    integral form and is eliminated by cross-multiplication through
    accumulate, vec <- a*vec - c*row with a = row[p] and c = vec[p] divided
    by gcd(a, c).  Elimination works on a copy of the vector and builds a
    new dict for a row it changes: a stored row is never mutated, so a
    Subspace shares the rows.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict = {}  # pivot -> row

    def _reduce(self, vec: dict) -> tuple:
        """(r, s): r a new int dict, s times the exact residual of vec.

        A row touches only its own pivot among the pivot columns, so each
        pivot key of vec is eliminated once.  Enough for zero patterns and
        spans; Subspace.reduce divides by s.
        """
        vec, s = _integral(vec)
        rows = self.rows
        for p in [k for k in vec if k in rows]:
            row = rows[p]
            a, c = row[p], vec[p]
            if a != 1:
                g = gcd(a, c)
                a, c = a // g, c // g
                if a != 1:
                    s *= a
                    for k in vec:
                        vec[k] *= a
            accumulate(vec, -c, row.items())
        return vec, s

    def insert(self, vec: dict) -> bool:
        """Add a vector to the span; True if the rank grew."""
        vec = self._reduce(vec)[0]
        if not vec:
            return False
        pivot = min(vec)
        vec = _primitive(vec, pivot)
        lead = vec[pivot]
        rows = self.rows
        # clear the new pivot column from existing rows
        for q, other in rows.items():
            c = other.get(pivot)
            if c:
                g = gcd(lead, c)
                a, c = lead // g, c // g
                row = {k: a * x for k, x in other.items()} if a != 1 else dict(other)
                rows[q] = _primitive(accumulate(row, -c, vec.items()), q)
        rows[pivot] = vec
        return True

    def subspace(self) -> "Subspace":
        pivots = sorted(self.rows)
        return _frozen(self.width, tuple(self.rows[p] for p in pivots), tuple(pivots))


_INT = frozenset((int,))


def _integral(vec: dict) -> tuple:
    """(m*vec as a new dict of ints, m), m the lcm of vec's denominators.

    A Fraction with denominator 1 is not an int, so every non-int entry is
    converted; an all-int vector costs one C-level type scan (isinstance
    against Fraction, an ABC, would be slower on this path).
    """
    if _INT.issuperset(map(type, vec.values())):
        return dict(vec), 1
    m = lcm(*(c.denominator for c in vec.values()))
    return {k: (c * m).numerator for k, c in vec.items()}, m


def _primitive(vec: dict, pivot: int) -> dict:
    """vec divided by its content, with a positive entry at pivot."""
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    return vec if g == 1 else {k: c // g for k, c in vec.items()}


def _frozen(width: int, rows: tuple, pivots: tuple) -> "Subspace":
    space = object.__new__(Subspace)
    space.ambient_dim = width
    space._rows = rows
    space.pivots = pivots
    return space


class Subspace:
    """Canonical subspace of Q^ambient_dim, the frozen view of an _Echelon:
    its primitive sparse int rows (_rows, sorted by pivot and unique per
    span, so == and hash compare them) and pivots.  sparse_rows divides
    each by its pivot only when read, the RREF, and rows densifies those."""

    __slots__ = ("ambient_dim", "_rows", "pivots")

    def __new__(cls, ambient_dim: int, vectors=()):
        ech = _Echelon(ambient_dim)
        for v in vectors:
            ech.insert(_as_sparse(v, ambient_dim))
        return ech.subspace()

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, then restore the slots
        return (self.ambient_dim,)

    @property
    def sparse_rows(self) -> tuple:
        """The canonical RREF rows as sparse dicts (do not mutate): each
        stored row divided by its pivot."""
        return tuple(unscale(r, r[p]) for r, p in zip(self._rows, self.pivots))

    @property
    def rows(self) -> tuple:
        return tuple(tuple(dense(r, self.ambient_dim)) for r in self.sparse_rows)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def _echelon(self) -> _Echelon:
        ech = _Echelon(self.ambient_dim)
        ech.rows = dict(zip(self.pivots, self._rows))
        return ech

    def reduce(self, vec) -> list:
        """The exact residual of vec after eliminating the pivot coordinates."""
        r, s = self._echelon()._reduce(_as_sparse(vec, self.ambient_dim))
        return dense(unscale(r, s), self.ambient_dim)

    def contains(self, vec) -> bool:
        return not self._echelon()._reduce(_as_sparse(vec, self.ambient_dim))[0]

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch()
        ech = self._echelon()
        return all(not ech._reduce(r)[0] for r in other._rows)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch()
        ech = self._echelon()
        for r in other._rows:
            ech.insert(r)
        return ech.subspace()

    def row_elements(self):
        return [Element(r) for r in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _as_sparse(vec, width) -> dict:
    """An Element or a coordinate list as a sparse dict of its nonzero entries."""
    coords = vec.coords if isinstance(vec, Element) else list(vec)
    if len(coords) != width:
        raise DimensionMismatch()
    return {i: c for i, c in enumerate(coords) if c}


_ZERO: dict = {}  # the stored zero pair product, shared (never mutated)


class _Jacobians:
    """The Jacobian kernel of one call over a list of sparse rows:
    J(a, b, c) = (r_a r_b) r_c + (r_b r_c) r_a + (r_c r_a) r_b for row
    indices a, b, c.

    The three first products are read from a table keyed by row-index pair
    that lives as long as the kernel.  Each pair product is formed once,
    for x < y, and r_y r_x = -(r_x r_y) is read from the same entry.  Rows
    that are all basis vectors {k: 1} read each pair product from the
    structure constants; other rows form it.  Most pair products of a nilpotent algebra are zero, and a
    zero one skips its second product.
    """

    __slots__ = ("rows", "mul", "first", "n", "pairs")

    def __init__(self, model: Algebra, rows: list):
        self.rows = rows
        self.mul = mul = model.multiply_sparse
        self.n = len(rows)
        self.pairs: dict = {}
        keys = [min(r, default=None) for r in rows]
        if all(r == {k: 1} for r, k in zip(rows, keys)):
            self.first = lambda x, y: model.basis_product(keys[x], keys[y])
        else:
            self.first = lambda x, y: mul(rows[x], rows[y])

    def pair(self, x: int, y: int) -> dict:
        """r_x r_y for x < y, else r_y r_x, from the table (do not mutate)."""
        if x > y:
            x, y = y, x
        p = self.pairs.get(x * self.n + y)
        if p is None:
            p = self.pairs[x * self.n + y] = (x != y and self.first(x, y)) or _ZERO
        return p

    def __call__(self, a: int, b: int, c: int) -> dict:
        out: dict = {}
        rows, mul, pair = self.rows, self.mul, self.pair
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            p = pair(x, y)
            if p:
                accumulate(out, 1 if x < y else -1, mul(p, rows[z]).items())
        return out


def _row_weights(rows: list, filt) -> tuple:
    """(wt, limit): the weight rule of a Jacobian call over rows, under the
    algebra's filtration filt = (weights, c).

    wt[x] is the least weight among the keys of row x.  Each e_k lies in
    A^weights[k], so the row lies in A^wt[x]: a lower bound on its power
    in any basis, and exact for a basis row.  J(A^a, A^b, A^c) lies in
    A^(a+b+c), so J(r_x, r_y, r_z) is exactly zero once wt[x] + wt[y] +
    wt[z] reaches limit, the class c.  Without a class every weight is 0
    and limit is 1: no sum reaches it, and nothing is skipped.
    """
    weights, c = filt
    if c is None:
        return [0] * len(rows), 1
    return [min(weights[k] for k in r) for r in rows], c


def _jacobian_triples(model: Algebra, rows: list, filt) -> tuple:
    """(jac, triples): the _Jacobians kernel over rows, and in increasing
    order the row-index triples a < b < c with a nonzero pair product
    among r_a r_b, r_a r_c and r_b r_c, completed by a partner row, whose
    weights sum below the limit (_row_weights under filt, the algebra's
    filtration).  Every other triple has J = 0.

    A pair (x, y) is formed only for the partner rows y of r_x's keys
    (_partner_rows; r_x r_y = 0 for every other y), once, into the
    kernel's table, and only when some row can complete it by weight.  A
    nonzero pair is completed only by the rows z with wt[z] < limit -
    wt[x] - wt[y] among the partner rows of the keys of r_x, r_y and
    r_x r_y: for any other z, r_x r_z, r_y r_z and (r_x r_y) r_z are all
    zero, and so is J.  Rows that are all basis vectors read each pair
    from the structure constants: no product is formed to find them.
    """
    jac = _Jacobians(model, rows)
    wt, limit = _row_weights(rows, filt)
    least = min(wt, default=limit)
    holders = _holders(rows)
    triples = set()
    for x, r in enumerate(rows):
        for y in _partner_rows(model, r, holders):
            budget = limit - 1 - wt[x] - wt[y]
            if x < y and least <= budget:
                p = jac.pair(x, y)
                if p:
                    for z in _partner_rows(model, r.keys() | rows[y].keys() | p.keys(), holders):
                        if wt[z] <= budget and z != x and z != y:
                            triples.add(tuple(sorted((x, y, z))))
    return jac, sorted(triples)


def _holders(rows) -> dict:
    """key -> the indices of the rows that have it."""
    holders: dict = {}
    for z, r in enumerate(rows):
        for k in r:
            holders.setdefault(k, []).append(z)
    return holders


def _partner_rows(model: Algebra, keys, holders: dict) -> set:
    """The indices of the rows (holders, from _holders) with a key among
    the partners of keys: every other row has a zero product with a
    vector whose keys are among keys."""
    return {z for j in _partners(model, keys) for z in holders.get(j, ())}


def _partners(model: Algebra, keys) -> set:
    """The j with e_j e_k != 0 for some k in keys (Algebra.partners)."""
    partners = model.partners
    return set().union(*(partners.get(k, ()) for k in keys))


def _insert_products(ech: _Echelon, model: Algebra, left, right) -> None:
    """Insert into ech every nonzero product u v of a row u of left and a
    row v of right.  Only the partner rows v of u's keys are multiplied
    (_partner_rows): uv = 0 for every other v.  A list times itself forms
    each unordered pair once, since vu = -uv and uu = 0."""
    mul = model.multiply_sparse
    holders = _holders(right)
    same = left == right
    for x, u in enumerate(left):
        for y in _partner_rows(model, u, holders):
            if x < y or not same:
                prod = mul(u, right[y])
                if prod:
                    ech.insert(prod)


def span(algebra: Algebra, gens) -> Subspace:
    """Canonical subspace spanned by the given elements."""
    return Subspace(algebra.dim, gens)


def full_space(algebra: Algebra) -> Subspace:
    """The whole algebra: its rows are the basis, {i: 1} with pivot i, and
    nothing is eliminated."""
    dim = algebra.dim
    return _frozen(dim, tuple({i: 1} for i in range(dim)), tuple(range(dim)))


def product_subspace(algebra: Algebra, left: Subspace, right: Subspace) -> Subspace:
    """Span of {uv : u in left, v in right}; spanning-set products suffice
    by bilinearity, and only partner rows are multiplied (_insert_products)."""
    if left.ambient_dim != algebra.dim or right.ambient_dim != algebra.dim:
        raise DimensionMismatch()
    ech = _Echelon(algebra.dim)
    _insert_products(ech, algebra.integral_model()[0], left._rows, right._rows)
    return ech.subspace()


# the power chain is built to at most this many powers: a plateau can last
# exponentially long in dim (e_k e_(k+1) = e_(k+2) on 12 basis vectors is
# nilpotent of class 145)
MAX_CHAIN = 100


class UnsettledChainError(ValueError):
    """No zero or settled power within MAX_CHAIN: no class, no later powers."""

    def __init__(self):
        super().__init__(f"the power chain does not settle within {MAX_CHAIN} powers")


def _settled(chain) -> bool:
    """Whether every power after the chain's last equals it (stable_powers)."""
    m = len(chain)
    return chain[-1].is_zero() or (m > 1 and chain[-1] == chain[m // 2 - 1])


def stable_powers(algebra: Algebra) -> tuple:
    """(A^1, ..., A^m), A^k the sum of A^i A^j over i + j = k (all
    association patterns), ending at the first power that is zero or
    equals A^(m//2); every later power equals A^m.

    The chain descends, so A^m = A^(m//2) gives A^j = A^(j+1) for every j
    in [m//2, m-1].  Every A^i A^j with i + j = m and i <= j has its larger
    index j in that range, so A^i A^j = A^i A^(j+1) lies in A^(m+1): then
    A^(m+1) = A^m, and the rule holds again at m+1.  A repeated power alone
    does not settle the chain: dim 5 with e1e2 = -e4, e1e3 = e2 and e2e4 =
    -e0 has power dimensions 5, 3, 2, 1, 1, 0.

    Each term A^i A^(n-i) forms only the products of partner rows, and
    A^i A^i each unordered pair once (_insert_products): an abelian
    algebra's chain forms no product at any dim.

    The chain is built once and cached on the algebra (which is
    immutable); it also ends, unsettled, at MAX_CHAIN powers.
    """
    cached = getattr(algebra, "_power_chain", None)
    if cached is not None:
        return cached
    model = algebra.integral_model()[0]
    chain = [full_space(algebra)]
    while not _settled(chain) and len(chain) < MAX_CHAIN:
        n = len(chain) + 1
        ech = _Echelon(algebra.dim)
        for i in range(1, n // 2 + 1):
            _insert_products(ech, model, chain[i - 1]._rows, chain[n - i - 1]._rows)
        chain.append(ech.subspace())
    algebra._power_chain = tuple(chain)
    return algebra._power_chain


def power_chain(algebra: Algebra, k_max: int) -> list:
    """[A^1, ..., A^k_max], sliced from stable_powers.

    Past the chain's settled end its last power (zero or a settled
    plateau) repeats, and no product is formed.  A power past a chain that
    did not settle within MAX_CHAIN powers raises UnsettledChainError.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    chain = stable_powers(algebra)
    if k_max > len(chain) and not _settled(chain):
        raise UnsettledChainError()
    return list(chain[:k_max]) + [chain[-1]] * (k_max - len(chain))


# the filtration without a class: nothing is skipped
_UNPRUNED = (None, None)


def filtration(algebra: Algebra):
    """(weights, c): weights[i] = max{k : e_i in A^k}, and c the nilpotency
    class (A^c = 0, A^(c-1) != 0), or None when the power chain settles at
    a nonzero power or does not settle within MAX_CHAIN powers.

    Since A^a A^b lies in A^(a+b), a product tree of basis elements whose
    weights sum to c or more is exactly zero; without a class nothing is
    skipped.  Both are read from stable_powers and cached on the algebra.
    A power holds e_i exactly when its echelon row with pivot i is a
    multiple of e_i (the other rows are zero in column i), so each power
    is read once, row by row: no basis vector is reduced and no dense
    basis is formed.
    """
    cached = getattr(algebra, "_filtration", None)
    if cached is not None:
        return cached
    chain = stable_powers(algebra)
    c = len(chain) if chain[-1].is_zero() else None
    weights = [0] * algebra.dim
    for power in chain[:-1]:
        for p, row in zip(power.pivots, power._rows):
            if len(row) == 1:
                weights[p] += 1
    weights = tuple(weights)
    algebra._filtration = (weights, c)
    return algebra._filtration


def is_nilpotent(algebra: Algebra):
    """(True, c) with A^c = 0 and A^(c-1) != 0, or (False, None) when the
    power chain settles at a nonzero power.

    The class convention matches the power chain: nilpotent of class c
    means every product of c factors vanishes.  The class is read from the
    algebra's cached filtration.  A chain that does not settle within
    MAX_CHAIN powers raises UnsettledChainError.
    """
    _, c = filtration(algebra)
    if c is None and not _settled(stable_powers(algebra)):
        raise UnsettledChainError()
    return c is not None, c


def lie_kernel(algebra: Algebra) -> Subspace:
    """N(A) = {x : J(x, A, A) = 0}, solved as an exact linear system with
    one constraint row per basis pair j < k and coordinate t:
    sum_i x_i J(e_i, e_j, e_k)[t] = 0.

    J is alternating in an anticommutative algebra, so each J(e_a, e_b,
    e_c) with a < b < c is computed once and scattered, with the sign of
    the permutation, into column a of the rows of pair (b, c), column b of
    pair (a, c) (negated) and column c of pair (a, b).  Only the triples
    with a nonzero structure constant among their pairs, completed by a
    partner, and with filtration weights summing below the class are
    visited (_jacobian_triples); every other J is zero.  Its first products e_a e_b are structure-constant
    lookups, each read once per call, and a zero one skips its second
    product.  The weights are the algebra's cached filtration, so the
    first call builds the power chain.
    """
    dim = algebra.dim
    # each J in the model is D^2 times the J here: the same constraints
    jac, triples = _jacobian_triples(algebra.integral_model()[0], [{i: 1} for i in range(dim)],
                                     filtration(algebra))
    rows: dict = {}  # (j, k, t) -> constraint row
    for a, b, c in triples:
        vec = jac(a, b, c)
        for j, k, i, sign in ((b, c, a, 1), (a, c, b, -1), (a, b, c, 1)):
            for t, val in vec.items():
                rows.setdefault((j, k, t), {})[i] = sign * val
    constraints = _Echelon(dim)
    for row in rows.values():
        constraints.insert(row)
    return _nullspace(constraints, dim)


def _nullspace(constraints: _Echelon, dim: int) -> Subspace:
    """One solution per free column f: x_f = 1, x_p = -row[f] / row[p].

    Every column of a row other than its pivot is free.  A free column
    that no row mentions has the solution {f: 1}, and no other solution
    has an entry in column f: that unit row is already an echelon row
    with pivot f, so it is stored as it is and only the other solutions
    are eliminated."""
    solutions = {f: {f: 1} for f in range(dim) if f not in constraints.rows}
    for p, row in constraints.rows.items():
        for f, c in row.items():
            if f != p:
                solutions[f][p] = Fraction(-c, row[p])
    ech = _Echelon(dim)
    for vec in solutions.values():
        if len(vec) > 1:
            ech.insert(vec)
    ech.rows.update((f, vec) for f, vec in solutions.items() if len(vec) == 1)
    return ech.subspace()


# the assignments of three rows to the spaces U, V, W (bits 1, 2, 4)
_ASSIGNMENTS = tuple(permutations((1, 2, 4)))


def jacobian_span(algebra: Algebra, u_space: Subspace, v_space: Subspace, w_space: Subspace) -> Subspace:
    """Span of J(u, v, w) over spanning-row triples (sufficient by
    multilinearity).

    J is alternating: a repeated row gives 0 and a permutation changes
    only the sign.  So the call works on its distinct rows, a row held by
    two spaces entering once with both, and the span is that of the
    J(a, b, c) over the triples a < b < c that _jacobian_triples lists
    (every other J is zero) whose three rows can be assigned to the three
    spaces.
    """
    rows: list = []
    slots: list = []  # the spaces that hold each row, as bits 1, 2, 4
    index: dict = {}  # a row's items -> its position in rows
    for bit, s in ((1, u_space), (2, v_space), (4, w_space)):
        if s.ambient_dim != algebra.dim:
            raise DimensionMismatch()
        for r in s._rows:
            x = index.setdefault(frozenset(r.items()), len(rows))
            if x == len(rows):
                rows.append(r)
                slots.append(0)
            slots[x] |= bit
    jac, triples = _jacobian_triples(algebra.integral_model()[0], rows, filtration(algebra))
    ech = _Echelon(algebra.dim)
    for a, b, c in triples:
        if any(slots[a] & p and slots[b] & q and slots[c] & r for p, q, r in _ASSIGNMENTS):
            vec = jac(a, b, c)
            if vec:
                ech.insert(vec)
    return ech.subspace()


def power_jacobian_spans(algebra: Algebra, chain, triples) -> dict:
    """{(i, j, k): J(A^i, A^j, A^k)} for the power triples given, in one
    pass; chain is [A^1, ..., A^K] as power_chain returns it, and every
    index of triples lies in 1..K.

    Adapted basis: the stored rows of A^K, ..., A^1, deepest first, go into
    one echelon, and each row that grows its rank joins a basis B of A^1
    with weight m, its power.  The chain descends, so after A^m the kept
    rows span A^m: A^m is spanned by the elements of B of weight >= m.

    By multilinearity J(A^i, A^j, A^k) is then spanned by the J(x, y, z)
    with x, y, z in B of weights >= i, j, k.  J is alternating, so a
    repeated element gives 0 and a permutation changes only the sign: the
    three elements a < b < c of B contribute J(a, b, c) exactly when some
    assignment of them to the three slots meets the bounds, that is, when
    their sorted weights w1 <= w2 <= w3 satisfy i <= w1, j <= w2 and k <=
    w3 for the sorted bounds i <= j <= k.  One _Jacobians table evaluates
    each triple of B with a nonzero pair product, completed by a partner,
    and with filtration weights summing below the class once
    (_jacobian_triples; every other J is zero), and each nonzero J goes into every requested span whose bounds
    it meets.

    The two weights of an element of B have different jobs.  Its power m
    in the chain given files its J; its filtration weight, the least
    weight of its keys, and the algebra's class c decide which J are
    skipped.  The chain is only required to descend: a caller's chain
    need not satisfy V_i V_j in V_(i+j), so neither its weights nor its
    first zero power bound a J.
    """
    dim = algebra.dim
    if any(power.ambient_dim != dim for power in chain):
        raise DimensionMismatch()
    if any(not 1 <= m <= len(chain) for t in triples for m in t):
        raise ValueError(f"power indices must lie in 1..{len(chain)}, the chain given")
    ech = _Echelon(dim)
    rows: list = []
    weights: list = []
    for m in range(len(chain), 0, -1):
        for r in chain[m - 1]._rows:
            if ech.insert(r):
                rows.append(r)
                weights.append(m)
    jac, found = _jacobian_triples(algebra.integral_model()[0], rows, filtration(algebra))
    spans = {t: _Echelon(dim) for t in triples}
    bounds = [(sorted(t), out) for t, out in spans.items()]
    for a, b, c in found:
        vec = jac(a, b, c)
        if vec:
            w1, w2, w3 = sorted((weights[a], weights[b], weights[c]))
            for (i, j, k), out in bounds:
                if i <= w1 and j <= w2 and k <= w3:
                    out.insert(vec)
    return {t: out.subspace() for t, out in spans.items()}


def ideal_closure(algebra: Algebra, seed: Subspace) -> Subspace:
    """Smallest subspace containing seed and closed under multiplication by
    the whole algebra; terminates because dimension is bounded."""
    current = seed
    ambient = full_space(algebra)
    while True:
        grown = current.add(product_subspace(algebra, current, ambient))
        if grown == current:
            return current
        current = grown


def quotient_algebra(algebra: Algebra, ideal: Subspace):
    """Quotient by a verified ideal.

    Returns (quotient, project) where the quotient's basis is the set of
    non-pivot coordinates of the ideal's echelon form and project maps
    elements onto quotient coordinates.

    The ideal test forms row * e_j only for the partners j of the row's
    keys (_partners); row * e_j = 0 for every other j, so the first
    escaping (row, basis index) is the one a sweep over all j would find.
    The quotient's structure constants are the residuals of the stored
    constants e_i e_j with i and j both in the complement: no product is
    formed for them.
    """
    if ideal.ambient_dim != algebra.dim:
        raise DimensionMismatch()
    model, d = algebra.integral_model()
    ech = ideal._echelon()
    for t, (row, p) in enumerate(zip(ideal._rows, ideal.pivots)):
        for j in sorted(_partners(model, row)):
            prod = model.multiply_sparse(row, {j: 1})
            if prod and ech._reduce(prod)[0]:
                raise NotAnIdealError(t, j, algebra._from_sparse(unscale(prod, row[p] * d)))

    # a residual mod the ideal has no pivot key left: its keys are here
    complement = [c for c in range(algebra.dim) if c not in ech.rows]
    position = {c: t for t, c in enumerate(complement)}

    def project(element: Element) -> Element:
        residual = ideal.reduce(element)
        return Element([residual[c] for c in complement])

    # complement is increasing, so a stored pair i < j keeps a < b
    products: dict = {}
    for (i, j), vec in model.table.items():
        if i in position and j in position:
            residual, s = ech._reduce(vec)
            if residual:
                products[(position[i], position[j])] = unscale(
                    {position[c]: x for c, x in residual.items()}, s * d)
    labels = [algebra.labels[c] for c in complement]
    name = f"{algebra.name}/I" if algebra.name else ""
    return Algebra(len(complement), labels, products, name=name), project


def subalgebra_generate(algebra: Algebra, gens):
    """Close the given elements under products.

    Returns (subspace, restricted) where restricted is the generated
    subalgebra as a standalone Algebra over the subspace's echelon rows.
    """
    model, d = algebra.integral_model()
    ech = _Echelon(algebra.dim)
    for g in gens:
        ech.insert(_as_sparse(g, algebra.dim))
    while True:
        rows = [ech.rows[p] for p in sorted(ech.rows)]
        products: dict = {}
        grew = False
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                prod = products[(a, b)] = model.multiply_sparse(rows[a], rows[b])
                if prod and ech.insert(prod):
                    grew = True
        if not grew:
            break
    sub = ech.subspace()
    # the last pass inserted every product and grew nothing, so each lies
    # in the span; closure also means it left the echelon rows unchanged
    if sub._rows != tuple(rows):
        raise RuntimeError("generated subspace not closed under products")

    # row a is scales[a] times sub.rows[a], and the last pass's products
    # make the table: a row has no entry in another row's pivot column
    scales = [r[p] for r, p in zip(sub._rows, sub.pivots)]
    table: dict = {}
    for (a, b), prod in products.items():
        coords = {t: prod[p] for t, p in enumerate(sub.pivots) if p in prod}
        if coords:
            table[(a, b)] = unscale(coords, scales[a] * scales[b] * d)
    labels = [algebra.format_element(Element(r), compact=True) for r in sub.rows]
    name = f"{algebra.name}<gen>" if algebra.name else ""
    return sub, Algebra(sub.dim, labels, table, name=name)
