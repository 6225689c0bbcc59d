"""Exact subspace calculus: canonical echelon subspaces, products, powers,
the Lie kernel, Jacobian spans, ideal closures, quotients, and generated
subalgebras.

Subspaces are stored as reduced row echelon matrices over the rationals
with no zero rows; that form is unique, so two subspaces are equal iff
their matrices are identical.

Products run over Python ints in the algebra's integral model A_D
(Algebra.integral_model).  A span does not change when a generator is
multiplied by a nonzero scalar, so each echelon row enters a product as
its integral form (the row times the lcm of its denominators, which an
echelon row holds at its pivot) and the product is taken in A_D: the
products span what the products in the algebra span.  Only coordinates
that leave the calculus, the structure constants of a quotient or of a
generated subalgebra, are divided once by their known scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
    """Mutable reduced-row-echelon accumulator."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list] = []       # sorted by pivot column
        self.pivots: list[int] = []

    def reduce(self, vec) -> list:
        """Eliminate the pivot coordinates of vec; returns the residual."""
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                for k in range(p, self.width):
                    if row[k]:
                        vec[k] -= c * row[k]
        return vec

    def insert(self, vec) -> bool:
        """Add a vector to the span; True if the rank grew."""
        vec = self.reduce(vec)
        pivot = next((k for k, c in enumerate(vec) if c), None)
        if pivot is None:
            return False
        lead = vec[pivot]
        row = [normalize(Fraction(c, 1) / lead) if c else 0 for c in vec]
        row[pivot] = 1
        # clear the new pivot column from existing rows
        for other in self.rows:
            c = other[pivot]
            if c:
                for k in range(pivot, self.width):
                    if row[k]:
                        other[k] = normalize(other[k] - c * row[k])
        at = next((t for t, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, row)
        self.pivots.insert(at, pivot)
        return True

    def subspace(self) -> "Subspace":
        return Subspace._make(
            self.width,
            tuple(tuple(normalize(c) for c in row) for row in self.rows),
            tuple(self.pivots),
        )


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
        ech = _Echelon(self.ambient_dim)
        ech.rows = [list(r) for r in self.rows]
        ech.pivots = list(self.pivots)
        return ech

    def reduce(self, vec) -> list:
        return self._echelon().reduce(_as_coords(vec, self.ambient_dim))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch()
        ech = self._echelon()
        return all(not any(ech.reduce(list(r))) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch()
        ech = self._echelon()
        for r in other.rows:
            ech.insert(list(r))
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
    """The row times the lcm of its denominators, as a sparse dict of ints.

    An integral row costs one exact type test per entry (isinstance
    against Fraction, an ABC, would be slower on this path).
    """
    vec = _sparse(row)
    m = 1
    for c in vec.values():
        if type(c) is not int:
            m = lcm(m, c.denominator)
    if m == 1:
        return vec
    return {i: (c * m).numerator for i, c in vec.items()}


def _jac_sparse(algebra: Algebra, u: dict, v: dict, w: dict) -> dict:
    mul = algebra.multiply_sparse
    out = mul(mul(u, v), w)
    for part in (mul(mul(v, w), u), mul(mul(w, u), v)):
        if part:  # most parts are zero: skip the call
            accumulate(out, 1, part.items())
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
        power = ech.subspace()
        chain += (power,)
        rows += ([_integral(r) for r in power.rows],)
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


def lie_kernel(algebra: Algebra) -> Subspace:
    """N(A) = {x : J(x, A, A) = 0}, solved as an exact linear system over
    all basis pairs."""
    dim = algebra.dim
    # each J in the model is D^2 times the J here: the same constraints
    model = algebra.integral_model()[0]
    constraints = _Echelon(dim)
    basis = [{i: 1} for i in range(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            columns: dict = {}
            for i in range(dim):
                if i == j or i == k:
                    continue  # J with a repeated argument vanishes
                jac = _jac_sparse(model, basis[i], basis[j], basis[k])
                for c, val in jac.items():
                    row = columns.get(c)
                    if row is None:
                        row = columns[c] = [0] * dim
                    row[i] = val
            for row in columns.values():
                constraints.insert(row)
            if len(constraints.rows) == dim:
                return Subspace(dim)  # kernel already forced to zero
    return _nullspace(constraints, dim)


def _nullspace(constraints: _Echelon, dim: int) -> Subspace:
    pivot_set = set(constraints.pivots)
    free_cols = [c for c in range(dim) if c not in pivot_set]
    ech = _Echelon(dim)
    for f in free_cols:
        vec = [0] * dim
        vec[f] = 1
        for row, p in zip(constraints.rows, constraints.pivots):
            if row[f]:
                vec[p] = -row[f]
        ech.insert(vec)
    return ech.subspace()


def jacobian_span(algebra: Algebra, u_space: Subspace, v_space: Subspace, w_space: Subspace) -> Subspace:
    """Span of J(u, v, w) over spanning-row triples (sufficient by
    multilinearity)."""
    for s in (u_space, v_space, w_space):
        if s.ambient_dim != algebra.dim:
            raise DimensionMismatch()
    model = algebra.integral_model()[0]
    ech = _Echelon(algebra.dim)
    us = [_integral(r) for r in u_space.rows]
    vs = [_integral(r) for r in v_space.rows]
    ws = [_integral(r) for r in w_space.rows]
    for u in us:
        for v in vs:
            for w in ws:
                jac = _jac_sparse(model, u, v, w)
                if jac:
                    ech.insert(_dense(jac, algebra.dim))
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
            if prod and any(ech.reduce(_dense(prod, algebra.dim))):
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
        rows = [_integral(r) for r in ech.rows]
        grew = False
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                prod = model.multiply_sparse(rows[a], rows[b])
                if prod and ech.insert(_dense(prod, algebra.dim)):
                    grew = True
        if not grew:
            break
    sub = ech.subspace()

    # the last pass added nothing, so rows are the integral forms of
    # sub.rows; row a is scales[a] times sub.rows[a]
    m = sub.dim
    scales = [u[p] for u, p in zip(rows, sub.pivots)]
    products: dict = {}
    for a in range(m):
        for b in range(a + 1, m):
            prod = model.multiply_sparse(rows[a], rows[b])
            dense = _dense(prod, algebra.dim)
            coords = {t: dense[p] for t, p in enumerate(sub.pivots) if dense[p]}
            # closure guarantees the product lies in the subspace
            check = list(dense)
            for t, c in coords.items():
                if c:
                    for k, rv in enumerate(sub.rows[t]):
                        if rv:
                            check[k] -= c * rv
            if any(check):
                raise RuntimeError("generated subspace not closed under products")
            if coords:
                products[(a, b)] = unscale(coords, scales[a] * scales[b] * d)
    labels = [algebra.format_element(Element(r), compact=True) for r in sub.rows]
    name = f"{algebra.name}<gen>" if algebra.name else ""
    return sub, Algebra(m, labels, products, name=name)
