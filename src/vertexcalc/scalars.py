"""Exact scalars: rationals, generalized binomial coefficients, basis vectors.

The ground field is Q throughout.  Scalars are plain ``int`` where possible and
``fractions.Fraction`` otherwise; the two mix freely.  ``parse_scalar`` and
every ``Vec`` keep an integral value as an ``int``, so a ``Vec`` entry is an
``int`` exactly when it is integral and arithmetic on integral entries stays
in ``int``.  Rationals serialize as "p/q" (or "p" when the denominator is 1).

A ``Vec`` is a coefficient, as in the formal calculus over a vector space
(Lepowsky-Li 2004, ch. 2): scalars act on it, ``v * c`` and ``c * v``, and it
adds only to a ``Vec`` or to the scalar 0, so code summing coefficients
needs no case for it.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

Scalar = (int, Fraction)


def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient n(n-1)...(n-k+1)/k! for any integer n.

    Integer-valued for all inputs; k must be nonnegative.  For n < 0 it uses
    the sign rule binom(n, k) = (-1)^k * comb(k - n - 1, k).
    """
    if k < 0:
        raise ValueError(f"binom requires k >= 0, got k={k}")
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def parse_scalar(s) -> int | Fraction:
    """Parse "p/q" or "p" into an exact rational: an ``int`` when integral."""
    q = Fraction(s) if isinstance(s, Scalar) else Fraction(str(s))
    return q.numerator if q.denominator == 1 else q


def format_scalar(q) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if type(q) is int:
        return str(q)
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Vec:
    """Sparse vector over a named basis with exact rational entries.

    Entries equal to zero are never stored, integral entries are stored as
    ``int``; equality is entrywise.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for name, value in entries.items():
                if value:
                    if type(value) is Fraction and value.denominator == 1:
                        value = value.numerator
                    self.entries[name] = value

    @classmethod
    def unit(cls, name):
        return cls({name: 1})

    def __add__(self, other):
        if type(other) is not Vec:
            if other != 0:
                raise TypeError("cannot add scalar and vector coefficients")
            return self
        out = dict(self.entries)
        for name, value in other.entries.items():
            new = out.get(name, 0) + value
            if type(new) is Fraction and new.denominator == 1:
                new = new.numerator
            if new:
                out[name] = new
            else:
                out.pop(name, None)
        v = Vec.__new__(Vec)
        v.entries = out
        return v

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Vec:
            if other != 0:
                raise TypeError("cannot subtract scalar and vector coefficients")
            return self
        # one pass: no negated copy of ``other``
        out = dict(self.entries)
        for name, value in other.entries.items():
            new = out.get(name, 0) - value
            if type(new) is Fraction and new.denominator == 1:
                new = new.numerator
            if new:
                out[name] = new
            else:
                out.pop(name, None)
        v = Vec.__new__(Vec)
        v.entries = out
        return v

    def __rsub__(self, other):  # ``other`` is a scalar
        if other != 0:
            raise TypeError("cannot subtract scalar and vector coefficients")
        return -self

    def __neg__(self):
        v = Vec.__new__(Vec)
        v.entries = {name: -value for name, value in self.entries.items()}
        return v

    def scale(self, c):
        if type(c) is Vec:
            raise TypeError("cannot multiply two vector coefficients")
        if not c:
            return Vec()
        if c == 1:  # sharing is safe: only Vec's constructors write entries
            return self
        entries = {}
        for name, value in self.entries.items():
            # integral check inlined: a call per entry made scale 3x slower
            p = c * value
            if type(p) is Fraction and p.denominator == 1:
                p = p.numerator
            entries[name] = p
        v = Vec.__new__(Vec)
        v.entries = entries
        return v

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Vec):
            return self.entries == other.entries
        if other == 0:
            return not self.entries
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __bool__(self):
        return bool(self.entries)

    def support(self):
        return set(self.entries)

    def __repr__(self):
        if not self.entries:
            return "Vec(0)"
        body = ", ".join(f"{k}: {format_scalar(v)}" for k, v in sorted(self.entries.items()))
        return f"Vec({{{body}}})"

    def to_json(self):
        return {k: format_scalar(v) for k, v in sorted(self.entries.items())}


def linear_map(images, vec: Vec) -> Vec:
    """The linear map with basis images ``images`` applied to ``vec``."""
    out = Vec()
    for b, c in vec.entries.items():
        img = images.get(b)
        if img:
            out = out + img.scale(c)
    return out

