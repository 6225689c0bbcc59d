"""Polynomial identities over anticommutative algebras: a small DSL,
multilinearization, and the built-in catalog.

Grammar (whitespace insensitive)::

    identity := NAME ':' vars '|' expr '=' expr
    vars     := NAME (',' NAME)*
    expr     := '0' | ['+'|'-'] addend (('+'|'-') addend)*
    addend   := [coeff '*'] term
    coeff    := INT ['/' INT]
    term     := factor ['*' factor]
    factor   := NAME | 'J' '(' term ',' term ',' term ')' | '(' term ')'

Product is binary: ``x*y*z`` is rejected, write ``(x*y)*z``.  ``*`` binds
tighter than ``+``/``-``.  ``J(a,b,c)`` is sugar expanded at parse time to
(ab)c + (bc)a + (ca)b, so the evaluation engine only ever sees binary
product trees.  An identity must be multihomogeneous: every term has to
share one multidegree, otherwise the parse is rejected.

builtin_catalog() returns a read-only Mapping keyed by the name before the
':' of each catalog source.  An entry is parsed the first time it is read
and kept for the life of that mapping; membership, iteration, len() and the
names parse nothing.  dict(builtin_catalog()) gives an eager copy.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import Rational, format_rational, normalize

# A term is a binary product tree: leaves are variable names (str),
# internal nodes are (left, right) tuples.


class IdentityError(ValueError):
    """Base class for identity DSL problems."""


class IdentityParseError(IdentityError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class MultidegreeError(IdentityError):
    pass


def term_degrees(tree, acc=None) -> dict:
    if acc is None:
        acc = {}
    if isinstance(tree, str):
        acc[tree] = acc.get(tree, 0) + 1
    else:
        term_degrees(tree[0], acc)
        term_degrees(tree[1], acc)
    return acc


def term_to_str(tree) -> str:
    def atom(t):
        return t if isinstance(t, str) else f"({term_to_str(t)})"

    if isinstance(tree, str):
        return tree
    return f"{atom(tree[0])}*{atom(tree[1])}"


def _substitute_positions(tree, var: str, replacements, counter):
    """Replace the i-th occurrence (in-order) of var with replacements[i]."""
    if isinstance(tree, str):
        if tree == var:
            name = replacements[counter[0]]
            counter[0] += 1
            return name
        return tree
    left = _substitute_positions(tree[0], var, replacements, counter)
    right = _substitute_positions(tree[1], var, replacements, counter)
    return (left, right)


@dataclass(frozen=True)
class Identity:
    """A formal identity lhs = rhs between scalar-weighted sums of terms.

    The identity asserts lhs - rhs == 0 for all values of the variables.
    """

    name: str
    variables: tuple
    lhs: tuple  # tuple of (coefficient, term)
    rhs: tuple
    multidegree: dict = field(compare=False, default=None)

    def __post_init__(self):
        degrees = None
        for coeff, tree in self.lhs + self.rhs:
            d = term_degrees(tree)
            full = {v: d.get(v, 0) for v in self.variables}
            if degrees is None:
                degrees = full
            elif degrees != full:
                raise MultidegreeError(
                    f"{self.name}: inconsistent multidegree {degrees} vs {full} "
                    f"in term {term_to_str(tree)}"
                )
        if degrees is None:
            degrees = {v: 0 for v in self.variables}
        object.__setattr__(self, "multidegree", degrees)

    @property
    def is_multilinear(self) -> bool:
        return all(d == 1 for d in self.multidegree.values())

    def residual_terms(self) -> tuple:
        """lhs - rhs as one combined weighted-term list (zeros dropped)."""
        return _combine(self.lhs + tuple((-coeff, tree) for coeff, tree in self.rhs))

    def _side_to_str(self, side) -> str:
        if not side:
            return "0"
        chunks = []
        for coeff, tree in side:
            c = normalize(coeff)
            sign = "-" if (c < 0) else "+"
            mag = abs(c)
            body = term_to_str(tree) if mag == 1 else f"{format_rational(mag)}*{term_to_str(tree)}"
            chunks.append((sign, body))
        text = chunks[0][1] if chunks[0][0] == "+" else f"-{chunks[0][1]}"
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def to_dsl(self) -> str:
        vars_text = ",".join(self.variables)
        return f"{self.name} : {vars_text} | {self._side_to_str(self.lhs)} = {self._side_to_str(self.rhs)}"

    def __str__(self):
        return self.to_dsl()


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<sym>[*+\-(),:|/=]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            raise IdentityParseError(f"unexpected character {src[bad_at]!r}", bad_at)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            try:
                value = int(m.group("int"))
            except ValueError:  # more digits than int() converts
                raise IdentityParseError("integer literal too long", m.start("int")) from None
            tokens.append(("int", value, m.start("int")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


# Deepest nesting of '(' and 'J(' a parse accepts.  The parser recurses
# per level, so past this bound it stops with IdentityParseError rather
# than running into the interpreter's recursion limit.
MAX_NESTING = 100

# Most terms a product, a J(...) expansion, a side or a linearization may
# expand to.  J triples the term count of its arguments' product, so
# nesting alone grows a parse as 3^depth, and linearization turns each term
# into the product of d! over its variables' degrees d; the count is
# checked before a list is built.
MAX_TERMS = 10_000


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    @staticmethod
    def _bound(count: int, pos: int):
        if count > MAX_TERMS:
            raise IdentityParseError(f"expands to {count} terms, more than {MAX_TERMS}", pos)

    def enter(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise IdentityParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, pos = self.next()
        if kind != "sym" or value != sym:
            raise IdentityParseError(f"expected {sym!r}, found {value!r}", pos)

    def expect_name(self) -> str:
        kind, value, pos = self.next()
        if kind != "name":
            raise IdentityParseError(f"expected a name, found {value!r}", pos)
        return value

    # -- expression grammar ------------------------------------------------

    def parse_factor(self, variables):
        kind, value, pos = self.peek()
        if kind == "name" and value == "J":
            self.next()
            self.expect_sym("(")
            self.enter(pos)
            a = self.parse_term(variables)
            self.expect_sym(",")
            b = self.parse_term(variables)
            self.expect_sym(",")
            c = self.parse_term(variables)
            self.expect_sym(")")
            self.depth -= 1
            # J(a,b,c) -> (ab)c + (bc)a + (ca)b
            self._bound(3 * len(a) * len(b) * len(c), pos)
            return (
                self._product(self._product(a, b, pos), c, pos)
                + self._product(self._product(b, c, pos), a, pos)
                + self._product(self._product(c, a, pos), b, pos)
            )
        if kind == "name":
            self.next()
            if value not in variables:
                raise IdentityParseError(f"unknown variable {value!r}", pos)
            return [(1, value)]
        if kind == "sym" and value == "(":
            self.next()
            self.enter(pos)
            inner = self.parse_term(variables)
            self.expect_sym(")")
            self.depth -= 1
            return inner
        raise IdentityParseError(f"expected a variable, J(...), or '(', found {value!r}", pos)

    def _product(self, a, b, pos):
        self._bound(len(a) * len(b), pos)
        return [(ca * cb, (ta, tb)) for ca, ta in a for cb, tb in b]

    def parse_term(self, variables):
        first = self.parse_factor(variables)
        kind, value, pos = self.peek()
        if kind == "sym" and value == "*":
            self.next()
            second = self.parse_factor(variables)
            return self._product(first, second, pos)
        return first

    def parse_coeff(self) -> Rational:
        kind, value, pos = self.next()
        if kind != "int":
            raise IdentityParseError(f"expected an integer coefficient, found {value!r}", pos)
        num = value
        kind2, value2, _ = self.peek()
        if kind2 == "sym" and value2 == "/":
            self.next()
            kind3, den, pos3 = self.next()
            if kind3 != "int" or den == 0:
                raise IdentityParseError("expected a nonzero integer denominator", pos3)
            return normalize(Fraction(num, den))
        return num

    def parse_addend(self, variables):
        kind, value, pos = self.peek()
        if kind == "int":
            coeff = self.parse_coeff()
            kind2, value2, pos2 = self.peek()
            if kind2 == "sym" and value2 == "*":
                self.next()
                term = self.parse_term(variables)
                return [(coeff * c, t) for c, t in term]
            if coeff == 0:
                return []
            raise IdentityParseError("bare nonzero coefficient needs '*term'", pos2)
        return self.parse_term(variables)

    def parse_expr(self, variables):
        terms = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "sym" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        terms.extend((sign * c, t) for c, t in self.parse_addend(variables))
        while True:
            kind, value, pos = self.peek()
            if kind == "sym" and value in "+-":
                self.next()
                sign = -1 if value == "-" else 1
                addend = self.parse_addend(variables)
                self._bound(len(terms) + len(addend), pos)
                terms.extend((sign * c, t) for c, t in addend)
            else:
                return terms


def _combine(terms) -> tuple:
    """Sum the coefficients of equal terms in first-occurrence order; drop zero sums."""
    acc: dict = {}
    order: list = []
    for coeff, tree in terms:
        if tree not in acc:
            acc[tree] = 0
            order.append(tree)
        acc[tree] += coeff
    return tuple((normalize(acc[t]), t) for t in order if acc[t])


def parse_identity(src: str) -> Identity:
    """Parse 'name : vars | expr = expr' into an Identity.

    Raises IdentityParseError (with position) on bad syntax or unknown
    variables, MultidegreeError when the terms are not multihomogeneous.
    """
    p = _Parser(src)
    name = p.expect_name()
    p.expect_sym(":")
    variables = [p.expect_name()]
    while True:
        kind, value, _ = p.peek()
        if kind == "sym" and value == ",":
            p.next()
            variables.append(p.expect_name())
        else:
            break
    for v in variables:
        if v == "J":
            raise IdentityParseError("variable name 'J' is reserved", 0)
    if len(set(variables)) != len(variables):
        raise IdentityParseError("duplicate variable name", 0)
    p.expect_sym("|")
    var_set = set(variables)
    lhs = _combine(p.parse_expr(var_set))
    p.expect_sym("=")
    rhs = _combine(p.parse_expr(var_set))
    kind, value, pos = p.peek()
    if kind != "end":
        raise IdentityParseError(f"trailing input {value!r}", pos)
    return Identity(name, tuple(variables), lhs, rhs)


def parse_map(src: str, name: str = "map") -> Identity:
    """Parse 'vars | expr' into an Identity with zero right-hand side,
    for use as a multilinear map (e.g. skew-symmetry checks)."""
    return parse_identity(f"{name} : {src} = 0")


def _fresh_names(var: str, count: int, taken) -> list:
    for sep in ("", "_", "__", "___"):
        names = [f"{var}{sep}{i}" for i in range(1, count + 1)]
        if not any(n in taken for n in names):
            return names
    raise IdentityError(f"cannot generate fresh variable names for {var!r}")


def linearize(ident: Identity) -> Identity:
    """Full multilinearization.

    Every variable of degree d > 1 is replaced by d fresh variables and only
    the multilinear component is kept: each term turns into the sum over all
    d! assignments of the fresh variables to the occurrences.  Over a field
    of characteristic 0 the original identity holds in an algebra iff the
    linearization does (substituting equal values back recovers d! times the
    original).  Raises IdentityError when that would build more than
    MAX_TERMS terms, before it builds any.
    """
    if ident.is_multilinear:
        return ident
    # every term has the identity's multidegree, so each turns into as many
    count = (len(ident.lhs) + len(ident.rhs)) * math.prod(
        math.factorial(d) for d in ident.multidegree.values())
    if count > MAX_TERMS:
        raise IdentityError(
            f"{ident.name}: linearization expands to {count} terms, more than {MAX_TERMS}")

    variables = list(ident.variables)
    lhs, rhs = list(ident.lhs), list(ident.rhs)
    taken = set(variables)
    for var in ident.variables:
        d = ident.multidegree[var]
        if d <= 1:
            continue
        fresh = _fresh_names(var, d, taken)
        taken.update(fresh)
        at = variables.index(var)
        variables[at : at + 1] = fresh

        def polarize(side):
            out = []
            for coeff, tree in side:
                for perm in itertools.permutations(fresh):
                    out.append((coeff, _substitute_positions(tree, var, perm, [0])))
            return out

        lhs, rhs = polarize(lhs), polarize(rhs)
    return Identity(f"{ident.name}_linearized", tuple(variables), _combine(lhs), _combine(rhs))


@dataclass(frozen=True)
class CatalogEntry:
    identity: Identity
    claim: str
    characteristic: str  # documented assumption; the workbench field is Q


_CATALOG_SOURCES = [
    (
        "anticommutative : x,y | x*y + y*x = 0",
        "anticommutativity xy = -yx",
        "any",
    ),
    (
        "jacobi : x,y,z | J(x,y,z) = 0",
        "Jacobi identity (the algebra is Lie)",
        "any",
    ),
    (
        "malcev : x,y,z | J(x,y,x*z) = J(x,y,z)*x",
        "Malcev identity",
        "any",
    ),
    (
        "first_type_1 : x,y,z,u | J(x*y,z,u) + J(y*z,x,u) + J(z*x,y,u) = 0",
        "cyclic Jacobian sum vanishes (first defining identity of the smaller variety)",
        "any",
    ),
    (
        "first_type_2 : x,y,u,v | J(x,y,u*v) = J(x,y,u)*v - J(x,y,v)*u",
        "Jacobian derivation rule (second defining identity of the smaller variety)",
        "any",
    ),
    (
        "second_type_3a : x,y,z | J(x,y,z)*x = 0",
        "J(x,y,z)x = 0 (half of the second-type condition)",
        "any",
    ),
    (
        "second_type_3b : x,y,z | J(x,y,x*z) = 0",
        "J(x,y,xz) = 0 (half of the second-type condition)",
        "any",
    ),
    (
        "first_type_4 : x,y,u,v | J(x,y,u*v) = 0",
        "Jacobian kills products; with Malcev, equivalent to the first-type laws",
        "char != 2 for the equivalence with first_type_1 + first_type_2",
    ),
    (
        "first_type_5 : x,y,z,u | J(x,y,z)*u = 0",
        "Jacobian values annihilate; with Malcev, equivalent to first_type_4",
        "char != 2, 3 for the equivalence with first_type_4",
    ),
    (
        "malcev_linear : x,y,w,z | J(x,y,w*z) = J(x,y,z)*w + J(w,y,z)*x - J(w,y,x*z)",
        "linearized form of the Malcev identity",
        "any",
    ),
    (
        "sagle_2_14 : u,x,y,z | -2*u*J(x,y,z) = -J(u,x,y*z) - J(u,y,z*x) - J(u,z,x*y)",
        "Jacobian transfer law valid in every Malcev algebra",
        "char != 2 to divide by 2 in derivations",
    ),
    (
        "sagle_2_15 : w,x,y,z | 3*J(w*x,y,z) = J(x,y,z)*w - J(y,z,w)*x - 2*J(z,w,x)*y + 2*J(w,x,y)*z",
        "expansion of J(wx,y,z) valid in every Malcev algebra",
        "char != 3 to divide by 3 in derivations",
    ),
    (
        "jacobian_shift_6 : w,x,y,z | J(w*x,y,z) = w*J(x,y,z) + J(w,y,z)*x + 2*J(y*z,x,w)",
        "product-in-Jacobian expansion valid in every Malcev algebra",
        "any",
    ),
    (
        "two_w_jacobian : w,x,y,z | 2*w*J(x,y,z) = 3*J(w,x,y*z)",
        "2wJ(x,y,z) = 3J(w,x,yz), valid whenever J(x,y,z)x = J(x,y,xz) = 0",
        "char != 2, 3 for full strength",
    ),
]


class _Catalog(Mapping):
    """The catalog sources by name (see builtin_catalog); [] parses."""

    def __init__(self, sources):
        self._sources = {src.split(":", 1)[0].strip(): (src, claim, char)
                         for src, claim, char in sources}
        self._entries: dict = {}

    def __getitem__(self, name: str) -> CatalogEntry:
        entry = self._entries.get(name)
        if entry is None:
            src, claim, char = self._sources[name]
            entry = self._entries[name] = CatalogEntry(parse_identity(src), claim, char)
        return entry

    def __contains__(self, name) -> bool:
        return name in self._sources

    def __iter__(self):
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


def builtin_catalog() -> Mapping:
    """The named identity catalog, in a stable order, as a read-only
    Mapping name -> CatalogEntry.

    An entry is parsed when it is first read and kept for the life of the
    returned mapping; each call parses its own entries.  in, iteration and
    len parse nothing, and .items() / .values() parse every entry in
    catalog order.  dict(builtin_catalog()) gives an eager copy.
    """
    return _Catalog(_CATALOG_SOURCES)


def catalog_identity(name: str) -> Identity:
    catalog = builtin_catalog()
    if name not in catalog:
        known = ", ".join(catalog)
        raise KeyError(f"unknown identity {name!r}; catalog has: {known}")
    return catalog[name].identity
