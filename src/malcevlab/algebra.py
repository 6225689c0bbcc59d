"""Finite-dimensional anticommutative algebras over the rationals.

An Algebra is given by a sparse structure-constant table holding only the
i < j products (Algebra.table); e_j e_i = -(e_i e_j) and e_i e_i = 0 follow
from it, so bad data cannot break anticommutativity.  The constructor also
builds from it one index, Algebra.partners, holding every nonzero basis
product in both orientations, keyed by the first factor and then the
second.  multiply_sparse and basis_product read it; a caller that needs the
nonzero products of some basis vectors reads it or the table, and nothing
probes basis pairs.  Elements are dense coefficient vectors.  All arithmetic
is exact.

Exact products run over Python ints.  An algebra whose structure constants
have denominators has an integral model (Algebra.integral_model): the same
basis with every constant multiplied by D, the lcm of their denominators.
x -> Dx is an isomorphism onto it, so a value computed there from integral
inputs is an int: the value here times a known power of D and the inputs'
own scales.  Callers that need only zero patterns or spans use the model as
it is; the few values that leave it are divided once (unscale).

Algebras and bilinear forms are immutable after construction and all
operations here are pure functions, so concurrent read-only use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rationals import Rational, format_rational, normalize, parse_rational


class DimensionMismatch(ValueError):
    def __init__(self, msg: str = "dimension mismatch"):
        super().__init__(msg)


class AlgebraFormatError(ValueError):
    """Raised on malformed algebra text files."""


# Largest dim an algebra text file may declare: a dim line allocates labels
# and dense vectors of that size.  It matches the word cap of the
# constructions (construct.DEFAULT_WORD_CAP), so every file they write loads.
MAX_DIM = 10_000


class Element:
    """Dense coefficient vector over an algebra's basis."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(normalize(c) for c in coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Element") -> "Element":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch()
        return Element([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch()
        return Element([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Element":
        return Element([-a for a in self.coords])

    def scale(self, q: Rational) -> "Element":
        return Element([q * a for a in self.coords])

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not any(self.coords)

    def nonzero(self):
        """Iterate (index, coefficient) over nonzero coordinates."""
        return ((i, c) for i, c in enumerate(self.coords) if c)

    def sparse(self) -> dict:
        return {i: c for i, c in enumerate(self.coords) if c}

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Element({list(self.coords)!r})"


def accumulate(acc: dict, coeff, items) -> dict:
    """acc += coeff * vec, in place, for vec given as (index, value) pairs.

    An entry that cancels to zero is deleted, so with a nonzero coeff and
    nonzero values acc never stores a zero.  This is the one sparse-vector
    kernel: products, residuals and Jacobians all accumulate through it.
    """
    for k, c in items:
        w = acc.get(k)
        if w is None:
            acc[k] = coeff * c
        else:
            w = w + coeff * c
            if w:
                acc[k] = w
            else:
                del acc[k]
    return acc


def unscale(vec: dict, scale: int) -> dict:
    """vec / scale: a sparse value computed at scale times its size."""
    if scale == 1:
        return vec
    return {k: normalize(Fraction(c, scale)) for k, c in vec.items()}


def format_sparse(vec: dict) -> str:
    """'k:c ...' over a sparse vector's entries in increasing k: the
    syntax of a product in the text format's sc lines."""
    return " ".join(f"{k}:{format_rational(c)}" for k, c in sorted(vec.items()))


def dense(vec: dict, width: int) -> list:
    """The coordinate list of a sparse vector of that width."""
    coords = [0] * width
    for k, c in vec.items():
        coords[k] = c
    return coords


class Algebra:
    """Anticommutative algebra given by structure constants.

    products maps (i, j) with i < j to {k: coefficient}; omitted pairs
    multiply to zero.  labels are the human-readable basis names used in
    reports and the text format.  table keeps the i < j constants and
    partners indexes them in both orientations (e_i e_j as partners[i][j]);
    both are built here, once.
    """

    def __init__(self, dim: int, labels=None, products=None, name: str = ""):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        self.dim = dim
        self.name = name
        if labels is None:
            labels = [f"e{i}" for i in range(dim)]
        if len(labels) != dim:
            raise DimensionMismatch("label count must equal dim")
        self.labels = list(labels)
        table: dict = {}
        partners: dict = {}
        for (i, j), vec in (products or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"structure constants need 0 <= i < j < dim, got ({i}, {j})")
            entries = {k: normalize(c) for k, c in vec.items() if c}
            for k in entries:
                if not 0 <= k < dim:
                    raise ValueError(f"product coordinate {k} out of range")
            if entries:
                table[(i, j)] = entries
                fwd = tuple(sorted(entries.items()))
                partners.setdefault(i, {})[j] = fwd
                partners.setdefault(j, {})[i] = tuple((k, -c) for k, c in fwd)
        self._table = table
        self._partners = partners

    @property
    def table(self) -> dict:
        """The stored i < j structure constants (do not mutate)."""
        return self._table

    @property
    def partners(self) -> dict:
        """The structure-constant index (do not mutate): partners[i] maps
        each j with e_i e_j != 0 to that product as sorted (k, c) pairs.
        Both orientations are stored, e_j e_i as the negation; an i with no
        nonzero product has no entry."""
        return self._partners

    # -- primitive operations -------------------------------------------

    def zero(self) -> Element:
        return Element([0] * self.dim)

    def basis_element(self, i: int) -> Element:
        coords = [0] * self.dim
        coords[i] = 1
        return Element(coords)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def element(self, coords) -> Element:
        e = Element(coords)
        if len(e) != self.dim:
            raise DimensionMismatch()
        return e

    def basis_product(self, i: int, j: int) -> dict:
        """Sparse product e_i e_j with anticommutativity synthesized."""
        cell = self._partners.get(i, {}).get(j)
        return dict(cell) if cell else {}

    def multiply_sparse(self, u: dict, v: dict) -> dict:
        """Product of sparse coefficient dicts; the engine's workhorse."""
        out: dict = {}
        partners = self._partners
        for i, a in u.items():
            row = partners.get(i)
            if row:
                for j, b in v.items():
                    cell = row.get(j)
                    if cell:
                        accumulate(out, a * b, cell)
        return out

    def _from_sparse(self, vec: dict) -> Element:
        return Element(dense(vec, self.dim))

    def multiply(self, u: Element, v: Element) -> Element:
        """Bilinear extension of the structure constants, exact."""
        if len(u.coords) != self.dim or len(v.coords) != self.dim:
            raise DimensionMismatch()
        return self._from_sparse(self.multiply_sparse(u.sparse(), v.sparse()))

    def jacobian(self, x: Element, y: Element, z: Element) -> Element:
        """J(x, y, z) = (xy)z + (yz)x + (zx)y."""
        return (
            self.multiply(self.multiply(x, y), z)
            + self.multiply(self.multiply(y, z), x)
            + self.multiply(self.multiply(z, x), y)
        )

    def integral_model(self) -> tuple:
        """(A_D, D): D is the lcm of the structure constants' denominators
        and A_D the algebra whose constants are D times these.

        x -> Dx maps this algebra isomorphically onto A_D, so a product
        tree with p products, evaluated in A_D at integral inputs, is an int
        and D^p times its value here.  Built once and cached on the algebra,
        which is immutable; with D = 1 the model is the algebra itself.
        """
        # the cache holds None for the algebra itself: no reference cycle
        cached = getattr(self, "_integral", None)
        if cached is None:
            d = lcm(*(c.denominator for vec in self._table.values() for c in vec.values()))
            model = None
            if d != 1:
                scaled = {ij: {k: d * c for k, c in vec.items()} for ij, vec in self._table.items()}
                model = Algebra(self.dim, self.labels, scaled, name=self.name)
                model._integral = (None, 1)
            cached = self._integral = (model, d)
        model, d = cached
        return (self if model is None else model), d

    # -- formatting ------------------------------------------------------

    def format_element(self, e: Element, compact: bool = False) -> str:
        parts = []
        for i, c in e.nonzero():
            if c == 1:
                parts.append(("+", self.labels[i]))
            elif c == -1:
                parts.append(("-", self.labels[i]))
            else:
                sign = "+" if (c > 0) else "-"
                parts.append((sign, f"{format_rational(abs(c))}*{self.labels[i]}"))
        if not parts:
            return "0"
        sep = "" if compact else " "
        first_sign, first = parts[0]
        text = first if first_sign == "+" else f"-{first}"
        for sign, chunk in parts[1:]:
            text += f"{sep}{sign}{sep}{chunk}"
        return text

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Algebra(dim={self.dim}{tag})"

    # -- text format -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"dim {self.dim}"]
        for i, lab in enumerate(self.labels):
            lines.append(f"label {i} {lab}")
        for (i, j) in sorted(self._table):
            lines.append(f"sc {i} {j} -> {format_sparse(self._table[(i, j)])}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str, name: str = "") -> "Algebra":
        dim = None
        labels: dict[int, tuple] = {}   # index -> (line number, name)
        products: dict = {}             # (i, j) -> (line number, {k: c})
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            try:
                if fields[0] == "dim":
                    if dim is not None:
                        raise AlgebraFormatError(f"line {lineno}: duplicate dim")
                    if len(fields) != 2:
                        raise AlgebraFormatError(f"line {lineno}: dim needs exactly one value")
                    dim = int(fields[1])
                    if dim < 0:
                        raise AlgebraFormatError(f"line {lineno}: dim {dim} is negative")
                    if dim > MAX_DIM:
                        raise AlgebraFormatError(f"line {lineno}: dim {dim} exceeds {MAX_DIM}")
                elif fields[0] == "label":
                    if len(fields) != 3:
                        raise AlgebraFormatError(f"line {lineno}: label needs index and name")
                    index = int(fields[1])
                    if index in labels:
                        raise AlgebraFormatError(
                            f"line {lineno}: duplicate label {index} (first on line {labels[index][0]})")
                    labels[index] = (lineno, fields[2])
                elif fields[0] == "sc":
                    if len(fields) < 5 or fields[3] != "->":
                        raise AlgebraFormatError(f"line {lineno}: expected 'sc i j -> k:c ...'")
                    i, j = int(fields[1]), int(fields[2])
                    if i >= j:
                        raise AlgebraFormatError(f"line {lineno}: structure constants require i < j")
                    if (i, j) in products:
                        raise AlgebraFormatError(f"line {lineno}: duplicate sc entry ({i}, {j})")
                    vec = {}
                    for chunk in fields[4:]:
                        k_text, _, c_text = chunk.partition(":")
                        k = int(k_text)
                        if k in vec:
                            raise AlgebraFormatError(f"line {lineno}: duplicate coordinate {k}")
                        vec[k] = parse_rational(c_text)
                    products[(i, j)] = (lineno, vec)
                else:
                    raise AlgebraFormatError(f"line {lineno}: unknown directive {fields[0]!r}")
            except AlgebraFormatError:
                raise
            except (ValueError, IndexError) as exc:
                raise AlgebraFormatError(f"line {lineno}: {exc}") from exc
        if dim is None:
            raise AlgebraFormatError("missing dim line")
        for index, (lineno, _) in labels.items():
            if not 0 <= index < dim:
                raise AlgebraFormatError(f"line {lineno}: label index {index} outside 0..{dim - 1}")
        for (i, j), (lineno, vec) in products.items():
            for what, k in (("sc index", i), ("sc index", j), *(("coordinate", k) for k in vec)):
                if not 0 <= k < dim:
                    raise AlgebraFormatError(f"line {lineno}: {what} {k} outside 0..{dim - 1}")
        label_list = [labels[i][1] if i in labels else f"e{i}" for i in range(dim)]
        return cls(dim, label_list, {ij: vec for ij, (_, vec) in products.items()}, name=name)

    @classmethod
    def load(cls, path, name: str = "") -> "Algebra":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read(), name=name or str(path))


class BilinearForm:
    """Antisymmetric bilinear form; only i < j entries are stored, the
    rest are synthesized."""

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        table: dict = {}
        for (i, j), c in (entries or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"form entries need 0 <= i < j < dim, got ({i}, {j})")
            c = normalize(c)
            if c:
                table[(i, j)] = c
        self.entries = table

    def pair(self, i: int, j: int) -> Rational:
        if i < j:
            return self.entries.get((i, j), 0)
        if i > j:
            return -self.entries.get((j, i), 0)
        return 0

    def evaluate(self, u: Element, v: Element) -> Rational:
        if len(u.coords) != self.dim or len(v.coords) != self.dim:
            raise DimensionMismatch()
        total: Rational = 0
        for i, a in u.nonzero():
            for j, b in v.nonzero():
                c = self.pair(i, j)
                if c:
                    total += a * b * c
        return normalize(Fraction(total)) if not isinstance(total, int) else total
