"""Exact scalars: rationals, generalized binomial coefficients, basis vectors.

The ground field is Q throughout.  Scalars are plain ``int`` where possible and
``fractions.Fraction`` otherwise; the two mix freely.  ``parse_scalar`` and
every ``Vec`` keep an integral value as an ``int``, so a ``Vec`` entry is an
``int`` exactly when it is integral and arithmetic on integral entries stays
in ``int``.  Rationals serialize as "p/q" (or "p" when the denominator is 1).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

Scalar = (int, Fraction)


@lru_cache(maxsize=4096)
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

    def __sub__(self, other):
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

    def __neg__(self):
        v = Vec.__new__(Vec)
        v.entries = {name: -value for name, value in self.entries.items()}
        return v

    def scale(self, c):
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

    def get(self, name):
        return self.entries.get(name, 0)

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


def coeff_mul(a, b):
    """Multiply two coefficients; at most one of them may be a Vec."""
    if type(a) is not Vec:
        if type(b) is not Vec:
            return a * b
        return b.scale(a)
    if type(b) is Vec:
        raise TypeError("cannot multiply two vector coefficients")
    return a.scale(b)


def coeff_add(a, b):
    """Add two coefficients; a Vec takes only a Vec or the scalar 0."""
    if type(a) is not Vec:
        if type(b) is not Vec:
            return a + b
        if a != 0:
            raise TypeError("cannot add scalar and vector coefficients")
        return b
    if type(b) is not Vec:
        if b != 0:
            raise TypeError("cannot add scalar and vector coefficients")
        return a
    return a + b


def coeff_sub(a, b):
    """Subtract two coefficients; a Vec takes only a Vec or the scalar 0."""
    if type(a) is not Vec:
        if type(b) is not Vec:
            return a - b
        if a != 0:
            raise TypeError("cannot subtract scalar and vector coefficients")
        return -b
    if type(b) is not Vec:
        if b != 0:
            raise TypeError("cannot subtract scalar and vector coefficients")
        return a
    return a - b


def coeff_is_zero(a):
    if type(a) is Vec:
        return not a.entries
    return a == 0


def coeff_to_json(a):
    if isinstance(a, Vec):
        return a.to_json()
    return format_scalar(a)
