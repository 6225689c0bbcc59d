"""Algebra constructors: free anticommutative truncations, the multilinear
quotient, central extensions by an antisymmetric form, the 23-dimensional
second-type example, and the reference zoo used by the verification suite.
"""

from __future__ import annotations

from .algebra import Algebra, BilinearForm, DimensionMismatch
from .rationals import normalize, parse_rational
from .words import (
    canonicalize,
    degree,
    free_dimension,
    has_repeated_letter,
    label,
    parse_word_label,
    words_by_degree,
)


class BasisCapExceeded(RuntimeError):
    pass


DEFAULT_WORD_CAP = 10_000


class WordAlgebra(Algebra):
    """Algebra whose basis is a set of canonical anticommutative words."""

    def __init__(self, words, gen_names, products, name: str = ""):
        labels = [label(w, gen_names) for w in words]
        super().__init__(len(words), labels, products, name=name)
        self.words = list(words)
        self.gen_names = list(gen_names)
        self.word_index = {w: i for i, w in enumerate(words)}

    def words_per_degree(self) -> list:
        counts: dict = {}
        for w in self.words:
            d = degree(w)
            counts[d] = counts.get(d, 0) + 1
        return [counts.get(d, 0) for d in range(1, max(counts, default=0) + 1)]

    def resolve_word(self, tree):
        """Canonicalize an arbitrary word tree against this basis.

        Returns (sign, index) or (0, None) when the word is zero here
        (truncated away, killed by the quotient, or identically zero).
        """
        sign, canon = canonicalize(tree)
        if sign == 0:
            return 0, None
        idx = self.word_index.get(canon)
        if idx is None:
            return 0, None
        return sign, idx


def free_anticommutative(n_gens: int, nil_class: int, cap: int = DEFAULT_WORD_CAP) -> WordAlgebra:
    """Free anticommutative algebra on n_gens generators with every product
    of nil_class factors equal to zero (basis: canonical words of degree
    < nil_class).

    The basis size is precomputed from the counting recurrence and guarded
    by `cap` before any enumeration happens.  The basis is in ascending
    degree order, so a row of the product table ends at its first partner
    whose degree brings the product to nil_class: every later one does too.
    """
    if n_gens < 1:
        raise ValueError("need at least one generator")
    if nil_class < 2:
        raise ValueError("nil_class must be at least 2")
    if n_gens == 1:
        max_degree = 1  # x1 x1 = 0: the generator spans the algebra at any class
    else:
        # degree d has at least 2^(d-2) words, so the words up to degree
        # cap.bit_length() + 1 already pass the cap: count no further
        max_degree = min(nil_class - 1, cap.bit_length() + 1)
    predicted = sum(free_dimension(n_gens, max_degree))
    if predicted > cap:
        count = predicted if max_degree == nil_class - 1 else f"more than {cap}"
        raise BasisCapExceeded(
            f"free algebra on {n_gens} generators truncated at class {nil_class} "
            f"has {count} basis words (cap {cap})"
        )
    by_deg = words_by_degree(n_gens, max_degree)
    words = [w for group in by_deg for w in group]
    degrees = [d for d, group in enumerate(by_deg, start=1) for _ in group]
    index = {w: i for i, w in enumerate(words)}
    gen_names = [f"x{i + 1}" for i in range(n_gens)]

    products: dict = {}
    for i, wi in enumerate(words):
        room = nil_class - degrees[i]  # a partner of this degree or more is truncated
        for j in range(i + 1, len(words)):
            if degrees[j] >= room:
                break
            sign, canon = canonicalize((wi, words[j]))
            if sign:
                products[(i, j)] = {index[canon]: sign}
    return WordAlgebra(words, gen_names, products, name=f"free_{n_gens}_{nil_class}")


def multilinear_quotient(free: WordAlgebra) -> WordAlgebra:
    """Quotient by the ideal spanned by words with a repeated letter.

    Words in which every generator appears at most once survive; products
    are the free products with repeated-letter results projected to zero.
    They are mapped from the stored entries of free.table; kept keeps the
    free order, so a stored pair a < b stays i < j.
    """
    kept = [w for w in free.words if not has_repeated_letter(w)]
    index = {free.word_index[w]: i for i, w in enumerate(kept)}  # free -> kept
    products: dict = {}
    for (a, b), cell in free.table.items():
        if a in index and b in index:
            entries = {index[k]: c for k, c in cell.items() if k in index}
            if entries:
                products[(index[a], index[b])] = entries
    return WordAlgebra(kept, free.gen_names, products, name=f"{free.name}_multilinear")


def central_extension(base: Algebra, psi: BilinearForm, new_label: str = "v") -> Algebra:
    """Adjoin a central vector v with product (a, s)(b, t) = (ab, psi(a,b) v).

    The new coordinate never feeds back into products, so v annihilates the
    whole algebra and the projection forgetting v is an algebra map.
    """
    if psi.dim != base.dim:
        raise DimensionMismatch()
    v = base.dim
    products = {ij: dict(vec) for ij, vec in base.table.items()}
    for ij, c in psi.entries.items():  # nonzero: the form stores no zero
        products.setdefault(ij, {})[v] = c
    return Algebra(v + 1, base.labels + [new_label], products, name=f"{base.name}+{new_label}" if base.name else "")


def bilinear_form_from_entries(algebra: WordAlgebra, entries) -> BilinearForm:
    """Build an antisymmetric form from (word_label, word_label, value)
    triples.  Labels may name non-canonical words; they are resolved by
    canonicalization with sign, so tables can be entered verbatim.
    """
    table: dict = {}
    for w1_text, w2_text, value in entries:
        value = normalize(value) if not isinstance(value, str) else parse_rational(value)
        s1, i = algebra.resolve_word(parse_word_label(w1_text, algebra.gen_names))
        s2, j = algebra.resolve_word(parse_word_label(w2_text, algebra.gen_names))
        if i is None or j is None:
            if value:
                raise ValueError(
                    f"form entry ({w1_text}, {w2_text}) names a word that is zero here"
                )
            continue
        if i == j:
            if value:
                raise ValueError(f"form entry ({w1_text}, {w2_text}) pairs a word with itself")
            continue
        coeff = s1 * s2 * value
        key, stored = ((i, j), coeff) if i < j else ((j, i), -coeff)
        if key in table and table[key] != stored:
            raise ValueError(f"conflicting duplicate form entry ({w1_text}, {w2_text})")
        table[key] = stored
    return BilinearForm(algebra.dim, table)


def bilinear_form_from_text(algebra: WordAlgebra, text: str) -> BilinearForm:
    """Parse lines 'psi WORD WORD VALUE'; comments start with '#'."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4 or fields[0] != "psi":
            raise ValueError(f"line {lineno}: expected 'psi WORD WORD VALUE'")
        entries.append((fields[1], fields[2], parse_rational(fields[3])))
    return bilinear_form_from_entries(algebra, entries)


# The nonzero values of the antisymmetric form used by the 23-dimensional
# example, on the word basis of the multilinear quotient.  This table is the
# unique antisymmetric form supported on complementary-letter pairs that has
# these degree-2 x degree-2 values, vanishes on the seven unlisted
# degree-3 x degree-1 pairs, and makes the central extension satisfy
# J(x,y,z)x = J(x,y,xz) = 0 (solved exactly; see tests for the oracle).
SECOND_TYPE_PSI_ENTRIES = (
    ("[x1,x2]", "[x3,x4]", 2),
    ("[x1,x3]", "[x2,x4]", -2),
    ("[x1,x4]", "[x2,x3]", 2),
    ("[x2,x3,x1]", "x4", -3),
    ("[x2,x3,x4]", "x1", 1),
    ("[x2,x4,x1]", "x3", 3),
    ("[x2,x4,x3]", "x1", -1),
    ("[x3,x4,x1]", "x2", -3),
    ("[x3,x4,x2]", "x1", 1),
)


def multilinear_base_22() -> WordAlgebra:
    """The 22-dimensional multilinear quotient of the free anticommutative
    algebra on 4 generators truncated at class 4 (layers 4 / 6 / 12)."""
    base = multilinear_quotient(free_anticommutative(4, 4))
    base.name = "quotient_22"
    return base


def second_type_example(psi_override=None) -> Algebra:
    """The 23-dimensional central extension that satisfies the Malcev and
    second-type identities but not the first-type ones.

    psi_override substitutes a different entry table (used by the
    corruption mode of the verification suite).
    """
    base = multilinear_base_22()
    entries = SECOND_TYPE_PSI_ENTRIES if psi_override is None else psi_override
    psi = bilinear_form_from_entries(base, entries)
    out = central_extension(base, psi)
    out.name = "second_type_23"
    return out


# -- octonion-derived 7-dimensional simple Malcev algebra ------------------

# Fano-plane lines with cyclic orientation: e_a e_b = e_c for consecutive
# pairs in each triple, e_i^2 = -1.
_FANO_TRIPLES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def _octonion_table():
    """mult[i][j] = (sign, k) meaning e_i e_j = sign * e_k, on basis
    e_0 = 1, e_1..e_7 imaginary."""
    mult = [[None] * 8 for _ in range(8)]
    for i in range(8):
        mult[0][i] = (1, i)
        mult[i][0] = (1, i)
    for i in range(1, 8):
        mult[i][i] = (-1, 0)
    for a, b, c in _FANO_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            mult[x][y] = (1, z)
            mult[y][x] = (-1, z)
    return mult


def _check_alternative(mult) -> None:
    """Validate the table against the left and right alternative laws.

    x(xy) = (xx)y is quadratic in x and linear in y, so over Q it holds for
    all elements iff its polarization a(bj) + b(aj) = (ab + ba)j holds on
    all basis triples; likewise (yx)x = y(xx) and (ja)b + (jb)a = j(ab + ba).
    Both polarized laws are symmetric in a and b, and at a = b each is twice
    the law itself, so the triples with a <= b decide both laws.  Each side
    is a sum of two signed units (s, k), s * e_k, multiplied straight from
    the table (not through an Algebra, so this stays an independent check
    of it) and compared as sorted (k, s) pairs with zeros cancelled.
    """
    def unit_times(a, u):  # e_a * u
        s, k = u
        c, m = mult[a][k]
        return s * c, m

    def times_unit(u, b):  # u * e_b
        s, k = u
        c, m = mult[k][b]
        return s * c, m

    def plus(u, v):
        (s, k), (t, m) = u, v
        if k == m:
            return ((k, s + t),) if s + t else ()
        return ((k, s), (m, t)) if k < m else ((m, t), (k, s))

    dim = len(mult)
    for a in range(dim):
        for b in range(a, dim):
            ab, ba = mult[a][b], mult[b][a]
            for j in range(dim):
                if (plus(unit_times(a, mult[b][j]), unit_times(b, mult[a][j]))
                        != plus(times_unit(ab, j), times_unit(ba, j))):
                    raise AssertionError(f"left alternative law fails at ({a}, {b}, {j})")
                if (plus(times_unit(mult[j][a], b), times_unit(mult[j][b], a))
                        != plus(unit_times(j, ab), unit_times(j, ba))):
                    raise AssertionError(f"right alternative law fails at ({a}, {b}, {j})")


def octonion_malcev() -> Algebra:
    """The 7-dimensional simple non-Lie Malcev algebra: imaginary octonion
    units under the (halved) commutator, i.e. the octonion product of
    distinct imaginary units."""
    mult = _octonion_table()
    _check_alternative(mult)
    products: dict = {}
    for i in range(1, 8):
        for j in range(i + 1, 8):
            sign, k = mult[i][j]
            if k == 0:
                raise RuntimeError(f"octonion table: e{i}*e{j} is not an imaginary unit")
            products[(i - 1, j - 1)] = {k - 1: sign}
    labels = [f"f{i}" for i in range(1, 8)]
    return Algebra(7, labels, products, name="octonion_malcev")


def cross_product_algebra() -> Algebra:
    products = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
    return Algebra(3, ["e1", "e2", "e3"], products, name="cross_product")


def heisenberg_algebra() -> Algebra:
    return Algebra(3, ["p", "q", "z"], {(0, 1): {2: 1}}, name="heisenberg")


def abelian_algebra(dim: int) -> Algebra:
    return Algebra(dim, None, {}, name=f"abelian_{dim}")


# Named reference algebras, insertion order stable: name -> constructor.
# Each entry calls its constructor by its module-level name when it runs, so
# a rebinding of that name (a profiler's wrapper) sees the call.
#
# free_3_5 is the smallest free truncation on which the four-variable
# Malcev-theorem identities are not vacuous (every product of four factors
# dies in a class-4 truncation), so it is the regression algebra on which
# they must fail.
ZOO = {
    **{f"abelian_{d}": (lambda d=d: abelian_algebra(d)) for d in range(1, 6)},
    "cross_product": lambda: cross_product_algebra(),
    "heisenberg": lambda: heisenberg_algebra(),
    "octonion_malcev": lambda: octonion_malcev(),
    "second_type_23": lambda: second_type_example(),
    "quotient_22": lambda: multilinear_base_22(),
    "free_2_3": lambda: free_anticommutative(2, 3),
    "free_3_3": lambda: free_anticommutative(3, 3),
    "free_3_5": lambda: free_anticommutative(3, 5),
}


def zoo() -> dict:
    """Every reference algebra of ZOO, freshly built, in ZOO's order."""
    return {name: build() for name, build in ZOO.items()}


def build_descriptor(words: list) -> Algebra:
    """CLI build descriptors: 'paper-example', 'free N C', 'zoo NAME'."""
    if not words:
        raise ValueError("empty build descriptor")
    kind = words[0]
    if kind == "paper-example" and len(words) == 1:
        return second_type_example()
    if kind == "free" and len(words) == 3:
        return free_anticommutative(int(words[1]), int(words[2]))
    if kind == "zoo" and len(words) == 2:
        build = ZOO.get(words[1])
        if build is None:
            raise ValueError(f"unknown zoo algebra {words[1]!r}; have: {', '.join(ZOO)}")
        return build()
    raise ValueError(
        f"unknown build descriptor {' '.join(words)!r}; "
        "expected 'paper-example', 'free N C', or 'zoo NAME'"
    )
