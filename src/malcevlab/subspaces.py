"""Exact subspace calculus: canonical echelon subspaces, products, powers,
the nilpotency filtration, the Lie kernel, Jacobian spans, ideal closures,
quotients, and generated subalgebras.

Subspaces are stored as reduced row echelon matrices over the rationals
with no zero rows; that form is unique, so two subspaces are equal iff
their matrices are identical.

Nothing in the calculus forms a Fraction until a value leaves it.  A span
does not change when a vector is multiplied by a nonzero scalar, so:

- the echelon accumulator (_Echelon) keeps each row as a primitive int
  vector, the canonical row times a positive scalar, and eliminates by
  cross-multiplication; Subspace gets its rows by one division per row;
- products run in the algebra's integral model A_D
  (Algebra.integral_model): each echelon row enters a product as its
  integral form (the row times the lcm of its denominators, which an
  echelon row holds at its pivot) and the products in A_D span what the
  products in the algebra span.

Only coordinates that leave the calculus, a residual of Subspace.reduce
and the structure constants of a quotient or of a generated subalgebra,
are divided once by their known scale.

Jacobians come from one kernel (_Jacobians) whose pair products live for
one call: jacobian_span and lie_kernel form each row-pair product once,
and a zero pair product skips its second product.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm

from .algebra import Algebra, DimensionMismatch, Element, accumulate, unscale
from .rationals import normalize


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
    """Mutable integer reduced-row-echelon accumulator.

    Each row is a primitive int vector: content gcd 1, a positive pivot,
    and zero in every other row's pivot column.  Divided by its pivot it is
    the canonical RREF row, and the canonical row times the lcm of its
    denominators is primitive too, so a row is that integral form: the
    rows of one span are unique.  Scaling a vector keeps its span, so a
    vector enters as its integral form and is eliminated by
    cross-multiplication, vec <- a*vec - c*row with a = row[p] and c =
    vec[p] divided by gcd(a, c); no Fraction is formed until subspace()
    divides each row by its pivot, once.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list] = []       # sorted by pivot column
        self.pivots: list[int] = []

    def _reduce(self, vec) -> tuple:
        """(r, s): r is an int list, s times the exact residual of vec.

        Enough for zero patterns and spans; reduce divides by s.
        """
        vec, s = _integral_list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                a = row[p]
                if a != 1:
                    g = gcd(a, c)
                    a //= g
                    c //= g
                if a == 1:  # row is zero before p
                    for k in range(p, self.width):
                        if row[k]:
                            vec[k] -= c * row[k]
                else:
                    s *= a
                    vec = [a * x - c * y for x, y in zip(vec, row)]
        return vec, s

    def reduce(self, vec) -> list:
        """Eliminate the pivot coordinates of vec; returns the exact residual."""
        vec, s = self._reduce(vec)
        if s == 1:
            return vec
        return [normalize(Fraction(c, s)) if c else 0 for c in vec]

    def insert(self, vec) -> bool:
        """Add a vector to the span; True if the rank grew."""
        vec = _primitive(self._reduce(vec)[0])
        if vec is None:
            return False
        pivot = next(k for k, c in enumerate(vec) if c)
        lead = vec[pivot]
        # clear the new pivot column from existing rows
        for t, other in enumerate(self.rows):
            c = other[pivot]
            if c:
                g = gcd(lead, c)
                a, c = lead // g, c // g
                self.rows[t] = _primitive([a * x - c * y for x, y in zip(other, vec)])
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        return True

    def subspace(self) -> "Subspace":
        return Subspace._make(
            self.width,
            tuple(
                tuple(row) if row[p] == 1
                else tuple(normalize(Fraction(c, row[p])) if c else 0 for c in row)
                for row, p in zip(self.rows, self.pivots)
            ),
            tuple(self.pivots),
        )


_INT = frozenset((int,))


def _integral_list(vec) -> tuple:
    """(m*vec as a new list of ints, m), m the lcm of vec's denominators.

    A Fraction with denominator 1 is not an int, so every non-int entry is
    converted; an all-int vector costs one C-level type scan (isinstance
    against Fraction, an ABC, would be slower on this path).
    """
    if _INT.issuperset(map(type, vec)):
        return list(vec), 1
    m = 1
    for c in vec:
        if type(c) is not int:
            m = lcm(m, c.denominator)
    return [c * m if type(c) is int else (c * m).numerator for c in vec], m


def _primitive(vec: list):
    """vec divided by its content, with a positive leading entry; None for 0."""
    g = gcd(*vec)
    if not g:
        return None
    if next(c for c in vec if c) < 0:
        g = -g
    return vec if g == 1 else [c // g for c in vec]


class Subspace:
    """Canonical echelon-form subspace of Q^ambient_dim."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, vectors=()):
        ech = _Echelon(ambient_dim)
        for v in vectors:
            ech.insert(_as_coords(v, ambient_dim))
        built = ech.subspace()
        self.ambient_dim = ambient_dim
        self.rows = built.rows
        self.pivots = built.pivots

    @classmethod
    def _make(cls, ambient_dim, rows, pivots) -> "Subspace":
        self = object.__new__(cls)
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots
        return self

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def _echelon(self) -> _Echelon:
        # a canonical row times its denominators' lcm is its echelon row
        ech = _Echelon(self.ambient_dim)
        ech.rows = [_integral_list(r)[0] for r in self.rows]
        ech.pivots = list(self.pivots)
        return ech

    def reduce(self, vec) -> list:
        return self._echelon().reduce(_as_coords(vec, self.ambient_dim))

    def contains(self, vec) -> bool:
        return not any(self._echelon()._reduce(_as_coords(vec, self.ambient_dim))[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch()
        ech = self._echelon()
        return all(not any(ech._reduce(r)[0]) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch()
        ech = self._echelon()
        for r in other.rows:
            ech.insert(r)
        return ech.subspace()

    def row_elements(self):
        return [Element(r) for r in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _as_coords(vec, width) -> list:
    coords = list(vec.coords) if isinstance(vec, Element) else list(vec)
    if len(coords) != width:
        raise DimensionMismatch()
    return coords


def _sparse(row) -> dict:
    return {i: c for i, c in enumerate(row) if c}


def _integral(row) -> dict:
    """The row times the lcm of its denominators, as a sparse dict of ints."""
    return _sparse(_integral_list(row)[0])


_ZERO: dict = {}  # the stored zero pair product, shared (never mutated)


class _Jacobians:
    """The Jacobian kernel of one call over a list of sparse rows:
    J(a, b, c) = (r_a r_b) r_c + (r_b r_c) r_a + (r_c r_a) r_b for row
    indices a, b, c.

    The three first products are read from a table keyed by row-index pair
    that lives as long as the kernel.  Each pair product is formed once, by
    first(x, y) with x < y (default: the product of rows x and y), and
    r_y r_x = -(r_x r_y) is read from the same entry.  Most pair products
    of a nilpotent algebra are zero, and a zero one skips its second
    product.
    """

    __slots__ = ("rows", "mul", "first", "n", "pairs")

    def __init__(self, model: Algebra, rows: list, first=None):
        self.rows = rows
        self.mul = model.multiply_sparse
        self.first = first or (lambda x, y: self.mul(rows[x], rows[y]))
        self.n = len(rows)
        self.pairs: dict = {}

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


def _dense(vec: dict, width) -> list:
    row = [0] * width
    for k, c in vec.items():
        row[k] = c
    return row


def span(algebra: Algebra, gens) -> Subspace:
    """Canonical subspace spanned by the given elements."""
    return Subspace(algebra.dim, gens)


def full_space(algebra: Algebra) -> Subspace:
    return Subspace(algebra.dim, [algebra.basis_element(i) for i in range(algebra.dim)])


def product_subspace(algebra: Algebra, left: Subspace, right: Subspace) -> Subspace:
    """Span of {uv : u in left, v in right}; spanning-set products suffice
    by bilinearity."""
    if left.ambient_dim != algebra.dim or right.ambient_dim != algebra.dim:
        raise DimensionMismatch()
    model = algebra.integral_model()[0]
    ech = _Echelon(algebra.dim)
    lrows = [_integral(r) for r in left.rows]
    rrows = [_integral(r) for r in right.rows]
    for u in lrows:
        for v in rrows:
            prod = model.multiply_sparse(u, v)
            if prod:
                ech.insert(_dense(prod, algebra.dim))
    return ech.subspace()


def _powers(algebra: Algebra, k: int) -> tuple:
    """The algebra's power chain (A^1, A^2, ...), built to at least k powers.

    There is one chain per algebra, cached on it (the algebra is
    immutable) and extended only as far as a caller asks, each power from
    the ones before it, so no power is built twice.  The cache is replaced
    by a longer tuple, never mutated, so a concurrent reader sees a valid
    prefix.  The chain may be longer than k; callers slice it.
    """
    cached = getattr(algebra, "_power_chain", None)
    if cached is None:
        full = full_space(algebra)
        cached = algebra._power_chain = ((full,), ([_integral(r) for r in full.rows],))
    chain, rows = cached  # rows[i]: the integral rows of chain[i]
    mul = algebra.integral_model()[0].multiply_sparse
    while len(chain) < k:
        n = len(chain) + 1
        ech = _Echelon(algebra.dim)
        for i in range(1, n // 2 + 1):
            for u in rows[i - 1]:
                for v in rows[n - i - 1]:
                    prod = mul(u, v)
                    if prod:
                        ech.insert(_dense(prod, algebra.dim))
        chain += (ech.subspace(),)
        rows += ([_sparse(r) for r in ech.rows],)
        algebra._power_chain = (chain, rows)
    return chain


def power_chain(algebra: Algebra, k_max: int) -> list:
    """[A^1, ..., A^k_max] with A^k = sum of A^i A^j over i + j = k
    (all association patterns); the chain is descending."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return list(_powers(algebra, k_max)[:k_max])


def stable_powers(algebra: Algebra) -> tuple:
    """(A^1, A^2, ..., A^m), ending at the first power that is zero or
    equals the one before it.

    The chain strictly descends before that point, so m <= dim + 1.  It is
    read from the one cached chain that power_chain reads too.
    """
    m = 1
    while True:
        chain = _powers(algebra, m)
        if chain[m - 1].is_zero() or (m > 1 and chain[m - 1] == chain[m - 2]):
            return chain[:m]
        m += 1


def filtration(algebra: Algebra):
    """(weights, c): weights[i] = max{k : e_i in A^k}, and c the nilpotency
    class (A^c = 0, A^(c-1) != 0), or None when the power chain stops
    shrinking at a nonzero power.

    Since A^a A^b lies in A^(a+b), a product tree of basis elements whose
    weights sum to c or more is exactly zero.  Both are read from
    stable_powers and cached on the algebra.
    """
    cached = getattr(algebra, "_filtration", None)
    if cached is not None:
        return cached
    chain = stable_powers(algebra)
    c = len(chain) if chain[-1].is_zero() else None
    weights = tuple(
        sum(1 for power in chain[:-1] if power.contains(e)) for e in algebra.basis()
    )
    algebra._filtration = (weights, c)
    return algebra._filtration


def is_nilpotent(algebra: Algebra):
    """(True, c) with A^c = 0 and A^(c-1) != 0, or (False, None).

    The class convention matches the power chain: nilpotent of class c
    means every product of c factors vanishes.  The class is read from the
    algebra's cached filtration, whose chain stops as soon as the powers
    reach zero or stop shrinking.
    """
    _, c = filtration(algebra)
    return c is not None, c


def lie_kernel(algebra: Algebra) -> Subspace:
    """N(A) = {x : J(x, A, A) = 0}, solved as an exact linear system over
    all basis pairs.

    J is alternating in an anticommutative algebra, so J(e_i, e_j, e_k) is
    computed once per unordered triple a < b < c and read with the sign of
    the permutation that sorts (i, j, k).  Its first products e_a e_b are
    structure-constant lookups, each read once per call, and a zero one
    skips its second product.  The pairs (j, k) run in
    lexicographic order, so the triple's three uses come at the pairs
    (a, b), (a, c) and (b, c), in that order: it is computed at the first,
    when the early exit has not yet been taken, and dropped at the last.
    """
    dim = algebra.dim
    # each J in the model is D^2 times the J here: the same constraints
    model = algebra.integral_model()[0]
    constraints = _Echelon(dim)
    jac = _Jacobians(model, [{i: 1} for i in range(dim)], model.basis_product)
    jacobians: dict = {}  # (a, b, c) -> J(e_a, e_b, e_c), between its first and last use
    for j in range(dim):
        for k in range(j + 1, dim):
            columns: dict = {}
            for i in range(dim):
                if i == j or i == k:
                    continue  # J with a repeated argument vanishes
                if i > k:
                    sign = 1
                    vec = jacobians[(j, k, i)] = jac(j, k, i)
                elif i > j:
                    sign, vec = -1, jacobians[(j, i, k)]
                else:
                    sign, vec = 1, jacobians.pop((i, j, k))
                for c, val in vec.items():
                    row = columns.get(c)
                    if row is None:
                        row = columns[c] = [0] * dim
                    row[i] = sign * val
            for row in columns.values():
                constraints.insert(row)
            if len(constraints.rows) == dim:
                return Subspace(dim)  # kernel already forced to zero
    return _nullspace(constraints, dim)


def _nullspace(constraints: _Echelon, dim: int) -> Subspace:
    """One solution per free column f: x_f = 1, x_p = -row[f] / row[p]."""
    pivot_set = set(constraints.pivots)
    free_cols = [c for c in range(dim) if c not in pivot_set]
    ech = _Echelon(dim)
    for f in free_cols:
        vec = [0] * dim
        vec[f] = 1
        for row, p in zip(constraints.rows, constraints.pivots):
            if row[f]:
                vec[p] = Fraction(-row[f], row[p])
        ech.insert(vec)
    return ech.subspace()


def jacobian_span(algebra: Algebra, u_space: Subspace, v_space: Subspace, w_space: Subspace) -> Subspace:
    """Span of J(u, v, w) over spanning-row triples (sufficient by
    multilinearity).

    Each row-pair product is computed once per call (an equal space shares
    its rows), and a zero one skips its second product.  A triple whose
    three pair products are all zero has J = 0, so for a pair (u, v) with
    uv = 0 only the w with vw or wu nonzero are visited.
    """
    spaces = (u_space, v_space, w_space)
    for s in spaces:
        if s.ambient_dim != algebra.dim:
            raise DimensionMismatch()
    # one row list for the call; an equal space shares its rows, so a pair
    # product met through either space is formed once
    starts: dict = {}
    rows: list = []
    for s in spaces:
        if s not in starts:
            starts[s] = len(rows)
            rows.extend(_integral(r) for r in s.rows)
    ou, ov, ow = (starts[s] for s in spaces)
    nw = w_space.dim
    jac = _Jacobians(algebra.integral_model()[0], rows)
    partners: dict = {}  # row x -> the c with r_x r_(ow+c) != 0

    def partners_of(x):
        found = partners.get(x)
        if found is None:
            found = partners[x] = {c for c in range(nw) if jac.pair(x, ow + c)}
        return found

    ech = _Echelon(algebra.dim)
    # J is alternating: where two spaces are equal, only strictly
    # increasing row pairs across them are needed (a repeated row gives 0,
    # a swapped pair the negative)
    same_uv, same_vw, same_uw = u_space == v_space, v_space == w_space, u_space == w_space
    for a in range(u_space.dim):
        for b in range(a + 1 if same_uv else 0, v_space.dim):
            first = max(b + 1 if same_vw else 0, a + 1 if same_uw else 0)
            if first >= nw:
                continue
            if jac.pair(ou + a, ov + b):
                cs = range(first, nw)
            else:  # J(a, b, c) = 0 unless r_b r_c or r_c r_a is nonzero
                cs = sorted(c for c in partners_of(ov + b) | partners_of(ou + a) if c >= first)
            for c in cs:
                vec = jac(ou + a, ov + b, ow + c)
                if vec:
                    ech.insert(_dense(vec, algebra.dim))
    return ech.subspace()


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
    """
    if ideal.ambient_dim != algebra.dim:
        raise DimensionMismatch()
    model, d = algebra.integral_model()
    ech = ideal._echelon()
    for t, (row, p) in enumerate(zip(ideal.rows, ideal.pivots)):
        u = _integral(row)
        for j in range(algebra.dim):
            prod = model.multiply_sparse(u, {j: 1})
            if prod and any(ech._reduce(_dense(prod, algebra.dim))[0]):
                raise NotAnIdealError(t, j, algebra._from_sparse(unscale(prod, u[p] * d)))

    pivot_set = set(ideal.pivots)
    complement = [c for c in range(algebra.dim) if c not in pivot_set]
    position = {c: t for t, c in enumerate(complement)}

    def project(element: Element) -> Element:
        residual = ech.reduce(_as_coords(element, algebra.dim))
        return Element([residual[c] for c in complement])

    products: dict = {}
    for a in range(len(complement)):
        for b in range(a + 1, len(complement)):
            prod = model.multiply_sparse({complement[a]: 1}, {complement[b]: 1})
            if not prod:
                continue
            residual = ech.reduce(_dense(prod, algebra.dim))
            vec = {position[c]: residual[c] for c in complement if residual[c]}
            if vec:
                products[(a, b)] = unscale(vec, d)
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
        ech.insert(_as_coords(g, algebra.dim))
    while True:
        rows = [_sparse(r) for r in ech.rows]
        products: dict = {}
        grew = False
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                prod = products[(a, b)] = model.multiply_sparse(rows[a], rows[b])
                if prod and ech.insert(_dense(prod, algebra.dim)):
                    grew = True
        if not grew:
            break
    sub = ech.subspace()

    # the last pass added nothing: its rows are ech.rows, row a is
    # scales[a] times sub.rows[a], and its products make the table
    scales = [r[p] for r, p in zip(ech.rows, sub.pivots)]
    table: dict = {}
    for (a, b), prod in products.items():
        dense = _dense(prod, algebra.dim)
        # closure guarantees the product lies in the subspace
        if any(ech._reduce(dense)[0]):
            raise RuntimeError("generated subspace not closed under products")
        coords = {t: dense[p] for t, p in enumerate(sub.pivots) if dense[p]}
        if coords:
            table[(a, b)] = unscale(coords, scales[a] * scales[b] * d)
    labels = [algebra.format_element(Element(r), compact=True) for r in sub.rows]
    name = f"{algebra.name}<gen>" if algebra.name else ""
    return sub, Algebra(sub.dim, labels, table, name=name)
