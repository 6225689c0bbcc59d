"""Seeded rational changes of basis, and the maps that undo them.

A change of basis is an invertible rational matrix P whose row a gives the
new basis vector f_a = sum_i P[a][i] e_i.  The rebased algebra is
isomorphic to the original, so every basis-independent fact (identity
verdicts, subspace dimensions, subspaces themselves once mapped back)
must come out the same: that is the oracle of the rebased workloads.

Each workload fixes a rational matrix P0 and lets the seed choose only the
signs of the new basis vectors, which changes no amount of work: every
intermediate value only changes sign.  With seeded entries instead, the
cost of a pass varied by 15-20% between seeds (sparsity and Fraction sizes
change with the cancellations), and with a seeded order the point where a
failing check stops moved; either would hide the changes the benchmark is
for.
"""

from __future__ import annotations

from fractions import Fraction

from malcevlab import Algebra
from malcevlab.rationals import normalize


def inverse(P):
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(P)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(P)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("change of basis is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [[normalize(x) for x in row[n:]] for row in rows]


def seeded_basis(n, entries, value, rng):
    """P = S * P0, where P0 is the identity with `value` at each (i, j) of
    `entries` and S is a diagonal matrix of seeded signs."""
    P0 = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j in entries:
        P0[i][j] = Fraction(value)
    return [[rng.choice((-1, 1)) * x for x in row] for row in P0]


class Rebased:
    """An algebra in a new basis, with the maps between the two bases."""

    def __init__(self, original: Algebra, P):
        n = original.dim
        self.original = original
        self.P = [[normalize(Fraction(x)) for x in row] for row in P]
        self.Q = inverse(self.P)
        rows = [{i: c for i, c in enumerate(row) if c} for row in self.P]
        products: dict = {}
        for a in range(n):
            for b in range(a + 1, n):
                vec = self._to_new(original.multiply_sparse(rows[a], rows[b]))
                if vec:
                    products[(a, b)] = vec
        labels = [f"f{i + 1}" for i in range(n)]
        self.algebra = Algebra(n, labels, products, name=f"{original.name}@rebased")

    def _to_new(self, old: dict) -> dict:
        out = {}
        for k in range(self.original.dim):
            s = sum(c * self.Q[i][k] for i, c in old.items())
            if s:
                out[k] = s
        return out

    def to_original(self, coords) -> list:
        """New-basis coordinates to original-basis coordinates (x -> xP)."""
        n = self.original.dim
        out = [0] * n
        for a, c in enumerate(coords):
            if c:
                for i, p in enumerate(self.P[a]):
                    if p:
                        out[i] += c * p
        return [normalize(Fraction(x)) for x in out]

    def from_original(self, element) -> list:
        """Original-basis element to new-basis coordinates (x -> xQ)."""
        new = self._to_new(element.sparse())
        return [new.get(k, 0) for k in range(self.original.dim)]
