"""Exact rational scalars.

Coefficients throughout the package are Python ints or ``fractions.Fraction``
values.  Both are arbitrary precision and exact; ``normalize`` collapses
integral fractions to plain ints because int arithmetic is roughly an order
of magnitude faster.  The hot loops never see a Fraction: they multiply in
an algebra's integral model (``Algebra.integral_model``), with integral
coefficients and rows, and divide once where a value leaves them.  Echelon
elimination in ``subspaces`` runs over primitive sparse int rows by
cross-multiplication through ``algebra.accumulate``, and a Subspace shares
those rows; its canonical Fraction rows are formed only when read, by one
division per row.
"""

from __future__ import annotations

from fractions import Fraction

Rational = int | Fraction


def normalize(q: Rational) -> Rational:
    """Return q with integral values represented as int."""
    if isinstance(q, int):
        return q
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    raise TypeError(f"not an exact rational: {q!r}")


def parse_rational(text: str) -> Rational:
    """Parse 'p' or 'p/q' into an exact rational.

    Raises ValueError on malformed input or zero denominator.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return normalize(Fraction(int(num), d))
    return int(s)


def format_rational(q: Rational) -> str:
    """Inverse of parse_rational: 'p' for integers, 'p/q' otherwise."""
    q = normalize(q)
    if isinstance(q, int):
        return str(q)
    return f"{q.numerator}/{q.denominator}"
