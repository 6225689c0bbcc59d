"""Exhaustive identity checking over basis tuples.

A multilinear identity vanishes for all elements iff it vanishes on every
tuple of basis elements, so exhaustive enumeration of the dim^n basis
tuples is a complete decision procedure.  Non-multilinear identities are
first fully linearized, which is an equivalent identity over the rationals.

Before compiling, the terms are reduced modulo anticommutativity: each
tree is rewritten to its canonical word (words.canonicalize) times a sign,
equal words are summed and zero sums dropped.  Every Algebra is
anticommutative by construction (only the i < j products are stored;
e_j e_i = -(e_i e_j) and e_i e_i = 0 are synthesized), so uv = -vu and
uu = 0 for all elements u, v, and each term has the value of its canonical
word times the sign: the residual at every tuple is unchanged.  malcev
goes from 12 to 8 terms, `anticommutative` to none.  The checked form in
the report keeps the terms as written.

The canonical terms are compiled into a shared-subterm DAG, and each
subterm is evaluated once per assignment of its own variables.  A subterm
over exactly the axes 0..d is computed at each visit of depth d.  Any
other subterm, with variable set S, last axis d and first missing axis m,
is read from a table keyed by its axes in S after m and filled on a miss;
the table is emptied whenever the loop at depth m starts, since the axes
before m, all in S, are then fixed.  So in a 4-variable check x2*x4 (axes
1 and 3) is multiplied dim^2 times, not dim^4 times.  A table holds at most
dim^|S & (m, d]| <= dim^(n-1) entries for n variables; every catalog
identity and skew map needs at most dim^3.  Values are sparse coefficient
dicts of Python ints, whatever the structure constants.  The compiled
program owns these tables, its variable count and its transposition
bounds: besides it, a scan reads only the model and the filtration.

The scan runs in the algebra's integral model A_D (Algebra.integral_model),
whose constants are D times the algebra's.  Every term of an identity has
one multidegree (Identity enforces it; a variable of degree 0 occurs in no
term), so every term's tree has the same number p of products, and at a
basis tuple it is D^p times its value in A.  With the coefficients
multiplied by L, the lcm of their denominators, every value in the scan is
an int and the residual is L * D^p times the residual in A: it is zero at
exactly the same tuples, and it is divided once, for the reported witness.
So the verdict, the first counterexample and tuples_checked are those of
the scan in A.

Tuples that are provably zero are skipped.  Each basis element has a
weight w(e_i) = max{k : e_i in A^k} from the power chain, and A^a A^b lies
in A^(a+b).  Every term of a multilinear identity is a product using each
variable once, so at a tuple whose weights sum to the nilpotency class c
or more (A^c = 0) every term is exactly zero, and the enumeration never
descends into such tuples.  A non-nilpotent algebra has no class, and a
variable of degree 0 (which linearization keeps) adds no factor to a
product; in either case every tuple is evaluated, and such a scan of
more than MAX_UNPRUNED_TUPLES tuples raises ScanBudgetExceeded before it
starts.  Skipped tuples contribute nothing, so the verdict, the first
counterexample and tuples_checked (the lexicographic rank of the decision
point, or dim^n when the identity holds) are those of the plain scan over
all dim^n tuples.

Tuples that cannot be the first witness are skipped too.  check_identity
finds the axis transpositions (a b), a < b, that map the canonical terms
to themselves (symmetric) or to their negation (skew): relabelling a and b
in every word and reducing again gives the same terms, or all of them
negated.  Then the residual f satisfies f(t') = f(t) or f(t') = -f(t),
where t' is t with entries a and b swapped, so t and t' are zero or
nonzero together.  At a tuple with t[a] > t[b], t' is lexicographically
smaller (the entries before a agree and t'[a] = t[b] < t[a]); and for a
skew pair with t[a] = t[b], t' = t gives f(t) = -f(t) = 0.  So the first
nonzero tuple has t[b] >= t[a] for every symmetric pair and t[b] > t[a]
for every skew pair, and the scan enters depth b only at such indices.
Every tuple before the first nonzero one is zero whether visited or not,
so the verdict, the first counterexample and tuples_checked are those of
the plain scan.  sagle_2_14 is skew in its last three variables and keeps
245 of 7^4 tuples on the octonions, malcev is symmetric in its first two
and keeps 1,372.

check_skew_symmetric is decided by the same scan.  A multilinear f is skew
under (a a+1) iff g_a = f + f o (a a+1) vanishes on every basis tuple, an
identity like any other.  g_a is symmetric in that pair, so its first
nonzero tuple t has t[a] <= t[a+1]: t is the smaller of t and its swap.
The least (first witness of g_a, a) over all a is therefore the first
violating (tuple, transposition) pair in lexicographic order, with residual
g_a(t) = f(t) + f(t swapped).  Where the terms of f are formally skew in
the pair, g_a reduces to no terms and is not scanned.

Enumeration is lexicographic; parallel runs (unpruned scans only)
partition the first axis and merge by lexicographically smallest
counterexample, so reports do not depend on the number of jobs.  Each
worker receives the model and the program once and scans one first-axis
index per task.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import itemgetter

from .algebra import Algebra, Element, accumulate, unscale
from .identities import Identity, IdentityError, _combine, linearize
from .rationals import normalize
from .subspaces import _UNPRUNED, filtration
from .words import canonicalize


@dataclass(frozen=True)
class Counterexample:
    indices: tuple            # basis index per variable of the checked form
    residual: Element         # nonzero value of lhs - rhs at those indices
    transposition: tuple | None = None  # (i, i+1) for skew-symmetry failures

    def describe(self, algebra: Algebra) -> str:
        labels = ", ".join(algebra.labels[i] for i in self.indices)
        text = f"({labels}) -> {algebra.format_element(self.residual)}"
        if self.transposition is not None:
            i, j = self.transposition
            text += f" under swap of arguments {i + 1},{j + 1}"
        return text


@dataclass(frozen=True)
class CheckReport:
    status: str               # "holds" | "fails"
    identity: Identity        # the form actually evaluated (post-linearization)
    tuples_checked: int       # lexicographic rank of the decision point
    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.status == "holds"


def _integral_terms(ident: Identity, terms, d: int):
    """(terms, scale): the identity's terms with integral coefficients, for
    the scan in the integral model with denominator d, and the factor by
    which every value there exceeds its value in the algebra."""
    den = lcm(*(coeff.denominator for coeff, _ in terms))
    products = sum(ident.multidegree.values()) - 1
    return tuple((normalize(coeff * den), tree) for coeff, tree in terms), den * d ** products


def _canonical_terms(terms, variables) -> tuple:
    """The terms modulo anticommutativity, with each variable replaced by
    its axis: every tree is rewritten to its canonical word (words.
    canonicalize), its coefficient multiplied by the sign, equal words
    summed and zero sums dropped.  Exact on every Algebra, whose products
    are anticommutative by construction.  A variable is a name, or an axis
    when _swapped relabels terms already canonical."""
    axis = {v: i for i, v in enumerate(variables)}

    def axes(tree):
        if not isinstance(tree, tuple):
            return axis[tree]
        return axes(tree[0]), axes(tree[1])

    signed = []
    for coeff, tree in terms:
        sign, word = canonicalize(axes(tree))
        if sign:
            signed.append((sign * coeff, word))
    return _combine(signed)


def _swapped(terms, n_vars: int, a: int, b: int) -> tuple:
    """Canonical terms with axes a and b exchanged, reduced again."""
    relabelled = list(range(n_vars))
    relabelled[a], relabelled[b] = b, a
    return _canonical_terms(terms, relabelled)


@lru_cache(maxsize=256)
def _transpositions(terms, n_vars: int) -> tuple:
    """(a, b, skew) for every axis transposition (a b), a < b, that maps the
    canonical terms to themselves (skew False) or to their negation (skew
    True): the terms with axes a and b exchanged (_swapped) have the same
    coefficient per word, or all of them negated.  Cached: it depends on
    the terms alone, and every check of one identity asks for it again."""
    own = {word: coeff for coeff, word in terms}
    negated = {word: -coeff for word, coeff in own.items()}
    found = []
    for a, b in combinations(range(n_vars), 2):
        moved = {word: coeff for coeff, word in _swapped(terms, n_vars, a, b)}
        if moved == own:
            found.append((a, b, False))
        elif moved == negated:
            found.append((a, b, True))
    return tuple(found)


def _key_axes(variables: frozenset, d: int):
    """(m, key_axes) for a product over these axes, the last of them d: m
    is the first axis before d that it does not use, key_axes its axes
    after m.  None when it uses every axis of 0..d: then each visit at
    depth d is a new assignment of its variables."""
    m = next((a for a in range(d) if a not in variables), None)
    if m is None:
        return None
    return m, tuple(a for a in sorted(variables) if a > m)


def _compile(terms, n_vars: int, transpositions=()):
    """Build the shared-subterm evaluation program of canonical terms
    (leaves are axes, as _canonical_terms gives them).  The program is the
    scan's whole state: _scan and the pool workers read everything from it.

    Returns (n_slots, var_slot_per_axis, tabled_by_depth, muls_by_depth,
    weighted, clear_at, lower_by_depth); len(var_slot_per_axis) is the
    number of variables.  tabled_by_depth and muls_by_depth hold the
    products computable once the d-th variable is bound, children before
    parents.
    muls_by_depth[d] lists (slot, left, right) for the products over
    exactly the variables 0..d, computed at each visit.
    tabled_by_depth[d] lists (slot, left, right, table, key) for the
    others, read from and filled into the dict `table`, created here and
    empty, at key(idx), their variables after m (_key_axes); clear_at[m]
    lists the tables emptied whenever the loop at depth m >= 1 starts.  A
    table with m = 0 is keyed by all its variables and is never emptied:
    a pool worker fills it once, not once per first-axis index.
    lower_by_depth[b] lists (a, offset) for each of the transpositions (a,
    b, skew): the scan enters depth b at indices >= idx[a] + offset,
    offset 1 when skew.
    A tabled product's children are variables, tabled products or products
    of a lower depth, so the scan computes the tabled products of a depth
    before the others.
    """
    interned: dict = {}
    exprs: list = []       # ('var', axis) or ('mul', l, r)
    variables: list = []   # frozenset of axes per slot

    def intern(tree):
        if isinstance(tree, int):
            key = ("var", tree)
        else:
            key = ("mul", intern(tree[0]), intern(tree[1]))
        slot = interned.get(key)
        if slot is None:
            slot = interned[key] = len(exprs)
            exprs.append(key)
            if key[0] == "var":
                variables.append(frozenset((tree,)))
            else:
                variables.append(variables[key[1]] | variables[key[2]])
        return slot

    weighted = tuple((coeff, intern(tree)) for coeff, tree in terms)
    var_slot = [None] * n_vars
    tabled_by_depth = [[] for _ in range(n_vars)]
    muls_by_depth = [[] for _ in range(n_vars)]
    clear_at = [[] for _ in range(n_vars)]
    for slot, expr in enumerate(exprs):
        if expr[0] == "var":
            var_slot[expr[1]] = slot
            continue
        d = max(variables[slot])
        plan = _key_axes(variables[slot], d)
        if plan is None:
            muls_by_depth[d].append((slot, expr[1], expr[2]))
        else:
            m, key_axes = plan
            table: dict = {}
            tabled_by_depth[d].append((slot, expr[1], expr[2], table, itemgetter(*key_axes)))
            if m:
                clear_at[m].append(table)
    lower_by_depth = [[] for _ in range(n_vars)]
    for a, b, skew in transpositions:
        lower_by_depth[b].append((a, int(skew)))
    return (len(exprs), var_slot, [tuple(t) for t in tabled_by_depth],
            [tuple(m) for m in muls_by_depth], weighted, [tuple(c) for c in clear_at],
            [tuple(low) for low in lower_by_depth])


def _scan(model, program, filt, first_indices=None):
    """Evaluate the program over basis tuples, in lexicographic order, up to
    the first with nonzero residual: (indices, residual_dict), or None.

    filt is the algebra's filtration (weights, c).  With a class c, each
    depth iterates only the indices whose weight still leaves the tuple's
    total below c, counting one for every variable not yet bound.  Each
    depth b after the first also starts at the program's lower bound
    (lower_by_depth, from the transpositions).  Tuples are visited in
    lexicographic order either way.  first_indices replaces the first
    axis: a pool worker scans one index of it per task.
    """
    n_slots, var_slot, tabled_by_depth, muls_by_depth, weighted, clear_at, lower_by_depth = program
    n_vars = len(var_slot)
    values = [None] * n_slots
    idx = [0] * n_vars
    every = range(model.dim)
    mul = model.multiply_sparse
    last = n_vars - 1
    weights, c = filt
    if c is not None:
        # by_budget[b]: the indices of weight at most b, in increasing order
        by_budget = [tuple(i for i, w in enumerate(weights) if w <= b) for b in range(c)]
        # slack[d]: the largest weight sum idx[0..d] may have
        slack = [c - 1 - (last - d) for d in range(n_vars)]
    if first_indices is None:
        first_indices = every if c is None else by_budget[max(slack[0], 0)]

    def run(d, todo, spent):
        vs = var_slot[d]
        my_tabled = tabled_by_depth[d]
        my_muls = muls_by_depth[d]
        for table in clear_at[d]:
            table.clear()
        for i in todo:
            idx[d] = i
            if vs is not None:
                values[vs] = {i: 1}
            for slot, l, r, table, key in my_tabled:
                k = key(idx)
                value = table.get(k)
                if value is None:
                    value = table[k] = mul(values[l], values[r])
                values[slot] = value
            for slot, l, r in my_muls:
                values[slot] = mul(values[l], values[r])
            if d == last:
                acc: dict = {}
                for coeff, slot in weighted:
                    accumulate(acc, coeff, values[slot].items())
                if acc:
                    return tuple(idx), acc
            else:
                if c is None:
                    s, nxt = 0, every
                else:
                    s = spent + weights[i]
                    nxt = by_budget[max(slack[d + 1] - s, 0)]
                lower = lower_by_depth[d + 1]
                if lower:
                    nxt = nxt[bisect_left(nxt, max(idx[a] + offset for a, offset in lower)):]
                hit = run(d + 1, nxt, s)
                if hit is not None:
                    return hit
        return None

    try:
        return run(0, first_indices, 0)
    finally:
        # run refers to itself; without this the cycle keeps the scan's
        # values and the model alive until the cyclic collector runs
        del run


def _rank(indices, dim) -> int:
    r = 0
    for i in indices:
        r = r * dim + i
    return r


# Worker-side state, installed once per process by the pool initializer so
# the model and program are pickled per worker, not per task.  Only
# unpruned scans use the pool (_use_pool).
_WORKER_STATE = None


def _init_worker(model, program):
    global _WORKER_STATE
    _WORKER_STATE = (model, program)


def _scan_index(i):
    model, program = _WORKER_STATE
    return _scan(model, program, _UNPRUNED, (i,))


def _pool_size(jobs: int, dim: int) -> int:
    # a worker takes one first-axis index at a time, and there are dim of
    # them; more workers than cores only add start-up and switching
    return min(jobs, os.cpu_count() or 1, dim)


def _pool(model, program, jobs):
    import multiprocessing

    return multiprocessing.get_context("fork").Pool(
        _pool_size(jobs, model.dim),
        initializer=_init_worker, initargs=(model, program),
    )


# below this many tuples, pool startup costs more than the whole scan
_PARALLEL_THRESHOLD = 100_000


def _use_pool(filt, total: int, jobs: int) -> bool:
    # with a class, pruning leaves a small fraction of the total: on the
    # nilpotent algebras at hand the pool costs more than the pruned scan
    return jobs > 1 and filt[1] is None and total >= _PARALLEL_THRESHOLD


class ScanBudgetExceeded(ValueError):
    """An unpruned scan would visit more than MAX_UNPRUNED_TUPLES tuples."""


# The most basis tuples a scan without weight pruning may face (dim ** n).
# The tests, the verification suite and the benchmark scan at most 23^4 =
# 279,841 such tuples; the largest scan on record, 810,000 (4 variables on
# the 30-dim direct sum octonion_malcev + second_type_23), took 2-3 s, so a
# scan at this bound would take about half a minute.
MAX_UNPRUNED_TUPLES = 10_000_000


def _first_witness(algebra: Algebra, checked: Identity, terms, jobs: int):
    """(indices, residual) at the lexicographically first basis tuple where
    the canonical terms of the checked form are nonzero, or None; the
    residual is the Element of the algebra.  No terms or no basis: None.
    A scan without a class (or of a form with a degree-0 variable) faces
    all dim ** n tuples: above MAX_UNPRUNED_TUPLES it raises
    ScanBudgetExceeded before it starts."""
    dim = algebra.dim
    if not terms or dim == 0:
        return None
    n_vars = len(checked.variables)
    # a degree-0 variable adds no factor to any product, so the weight
    # bound holds only when every variable has degree 1
    filt = filtration(algebra) if checked.is_multilinear else _UNPRUNED
    total = dim ** n_vars
    if filt[1] is None and total > MAX_UNPRUNED_TUPLES:
        raise ScanBudgetExceeded(
            f"{checked.name}: an unpruned scan of {total} basis tuples ({dim}^{n_vars}) "
            f"exceeds the bound of {MAX_UNPRUNED_TUPLES}"
        )
    transpositions = _transpositions(terms, n_vars)
    model, d = algebra.integral_model()
    terms, scale = _integral_terms(checked, terms, d)
    # compiled for each check, never cached: its m = 0 tables are never
    # emptied, so they hold values of the model they were filled on
    program = _compile(terms, n_vars, transpositions)

    if _use_pool(filt, total, jobs):
        hit = None
        # ordered consumption: the first hit seen is the lexicographically
        # smallest, and breaking lets the context manager kill the rest
        with _pool(model, program, jobs) as pool:
            for result in pool.imap(_scan_index, range(dim)):
                if result is not None:
                    hit = result
                    break
    else:
        hit = _scan(model, program, filt)

    if hit is None:
        return None
    indices, residual = hit
    return indices, algebra._from_sparse(unscale(residual, scale))


def check_identity(algebra: Algebra, ident: Identity, jobs: int = 1) -> CheckReport:
    """Decide an identity on an algebra by exhaustive basis-tuple evaluation.

    Multilinear identities are checked directly (complete by bilinearity);
    anything else is fully linearized first.  The report carries the form
    that was actually evaluated, the lexicographically first counterexample
    if any, and the number of tuples up to the decision point.
    """
    checked = ident if ident.is_multilinear else linearize(ident)
    terms = _canonical_terms(checked.residual_terms(), checked.variables)
    dim = algebra.dim
    hit = _first_witness(algebra, checked, terms, jobs)
    if hit is None:
        return CheckReport("holds", checked, dim ** len(checked.variables))
    indices, residual = hit
    return CheckReport("fails", checked, _rank(indices, dim) + 1, Counterexample(indices, residual))


def check_skew_symmetric(algebra: Algebra, map_ident: Identity, jobs: int = 1) -> CheckReport:
    """Verify a multilinear map is skew-symmetric under adjacent swaps.

    For every basis n-tuple t and every transposition (a, a+1) the value at
    the swapped tuple must be the negation of the value at t, that is,
    g_a = f + f o (a a+1) must vanish on every basis tuple.  Each g_a is
    decided by the identity scan; the reported violation is the first in
    lexicographic (tuple, transposition) order, the tuple being the smaller
    of the pair, and tuples_checked is dim^n.
    """
    if not map_ident.is_multilinear:
        raise IdentityError(f"{map_ident.name}: skew check requires a multilinear map")
    terms = _canonical_terms(map_ident.residual_terms(), map_ident.variables)
    n_vars = len(map_ident.variables)
    total = algebra.dim ** n_vars
    violations = []
    for a in range(n_vars - 1):
        g = _combine(terms + _swapped(terms, n_vars, a, a + 1))
        hit = _first_witness(algebra, map_ident, g, jobs)
        if hit is not None:
            violations.append((hit[0], a, hit[1]))
    if not violations:
        return CheckReport("holds", map_ident, total)
    indices, a, residual = min(violations, key=itemgetter(0, 1))
    witness = Counterexample(indices, residual, (a, a + 1))
    return CheckReport("fails", map_ident, total, witness)


# -- dense evaluation (independent of the compiled path) -------------------


def evaluate_term(algebra: Algebra, tree, assignment: dict) -> Element:
    if isinstance(tree, str):
        return assignment[tree]
    return algebra.multiply(
        evaluate_term(algebra, tree[0], assignment),
        evaluate_term(algebra, tree[1], assignment),
    )


def evaluate_identity(algebra: Algebra, ident: Identity, assignment: dict) -> Element:
    """lhs - rhs at the given variable assignment, via plain Element
    arithmetic.  This is the slow reference path used to re-verify
    counterexamples and to cross-check linearization."""
    out = algebra.zero()
    for coeff, tree in ident.residual_terms():
        out = out + evaluate_term(algebra, tree, assignment).scale(coeff)
    return out


def random_element(algebra: Algebra, rng, num_range: int = 6, den_range: int = 4) -> Element:
    """Seeded random element with small rational coordinates."""
    coords = [
        Fraction(rng.randint(-num_range, num_range), rng.randint(1, den_range))
        for _ in range(algebra.dim)
    ]
    return Element([normalize(c) for c in coords])


def random_substitutions_vanish(algebra: Algebra, ident: Identity, rng, samples: int = 100):
    """Evaluate the identity at seeded random rational points.

    Returns (all_zero, hits) where hits counts nonzero residuals.  For a
    failing identity a random rational substitution is nonzero outside a
    measure-zero set, so this agrees with the exhaustive verdict in
    practice and serves as its cross-check.

    Each drawn point x_i is evaluated as lambda_i x_i, lambda_i the lcm of
    its coordinates' denominators, so its coordinates are ints.  Identity
    enforces one multidegree (d_1, ..., d_n) on every term, so
    f(lambda_1 x_1, ...) = lambda_1^d_1 ... lambda_n^d_n f(x_1, ...) with a
    nonzero factor: each sample is zero exactly when it is zero at the
    rational point drawn, and the draws, hits and verdict are those of the
    rational points.
    """
    hits = 0
    for _ in range(samples):
        points = {v: random_element(algebra, rng) for v in ident.variables}
        assignment = {v: x.scale(lcm(*(c.denominator for c in x.coords))) for v, x in points.items()}
        if not evaluate_identity(algebra, ident, assignment).is_zero():
            hits += 1
    return hits == 0, hits
