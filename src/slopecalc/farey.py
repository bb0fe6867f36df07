"""Exact arithmetic on extended rationals and queries on the Farey tessellation.

A slope is an extended rational number p/q in lowest terms; the single point
at infinity is stored as 1/0 and sits above every finite slope in the total
order.  Two slopes p/q and r/s span an edge of the Farey tessellation exactly
when |p*s - q*r| = 1.  Everything here is integer arithmetic on
arbitrary-precision ints; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd
from operator import attrgetter


class FareyError(ValueError):
    """A slope argument violates the contract of a Farey operation."""


class Value:
    """Frozen value on the fields a subclass lists in __slots__, in constructor
    order: equality and hashing within one class, Name(field=value, ...) repr,
    pickling.  Hot constructors skip Value.__init__ for object.__setattr__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)  # one field: bare, compared like its 1-tuple

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


@total_ordering
class Slope(Value):
    """An extended rational p/q, canonicalized on construction.

    Invariants: gcd(|p|, q) = 1; q > 0 for finite slopes (sign lives on the
    numerator); infinity is exactly the pair (1, 0).
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1) -> None:
        g = gcd(numerator, denominator)
        if not g:
            raise FareyError("0/0 is not a slope")
        if denominator < 0:
            g = -g
        # q = 0 gives g = |p|; infinity is stored as 1/0 whatever the sign of p
        object.__setattr__(self, "numerator", numerator // g if denominator else 1)
        object.__setattr__(self, "denominator", denominator // g)

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        if self.is_infinite:  # equal finite slopes fail the final strict test
            return False
        if other.is_infinite:
            return True
        return self.numerator * other.denominator < other.numerator * self.denominator

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise FareyError("infinity has no fraction value")
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self) -> str:
        return f"Slope({self.numerator}, {self.denominator})"


INFINITY = Slope(1, 0)


def parse_slope(text: str) -> Slope:
    """Parse "p/q", a bare integer, or "inf"."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    try:
        if "/" in text:
            num, den = text.split("/")
            return Slope(int(num), int(den))
        return Slope(int(text))
    except (ValueError, FareyError) as exc:
        raise FareyError(f"cannot parse slope {text!r}") from exc


def intersection_number(a: Slope, b: Slope) -> int:
    """Geometric intersection number |p*s - q*r| of the slopes p/q and r/s.

    Symmetric; zero exactly when the slopes coincide.
    """
    return abs(a.numerator * b.denominator - a.denominator * b.numerator)


def is_edge(a: Slope, b: Slope) -> bool:
    """Whether a and b are joined by an edge of the Farey tessellation."""
    return intersection_number(a, b) == 1


def successor(b: Slope) -> Slope:
    """The greatest rational b' = p'/q' with p'*q - p*q' = 1.

    Equivalently, the neighbor of b closest to +infinity on (b, +inf).  The
    minimal positive q' in the solution fan maximizes the value; it is found
    with a modular inverse, so q' <= q always.
    """
    if b.is_infinite:
        raise FareyError("successor is undefined at infinity")
    p, q = b.numerator, b.denominator
    if q == 1:
        return Slope(p + 1, 1)
    qq = (-pow(p % q, -1, q)) % q
    pp = (1 + p * qq) // q
    return Slope(pp, qq)


def greatest_neighbor_below(a: Slope, upper: Slope) -> Slope:
    """The maximal slope in the open interval (a, upper) with an edge to a.

    The upper neighbors of a form a fan accumulating at a from above, so for
    any upper > a the interval always contains neighbors; errors can only
    signal a violated precondition (a infinite, or a >= upper).
    """
    if a.is_infinite:
        raise FareyError("infinity has no neighbors from above")
    if not a < upper:
        raise FareyError(f"empty interval: {a} >= {upper}")
    s = successor(a)
    if upper.is_infinite:
        return s
    # upper neighbors of a: (p' + t*p)/(q' + t*q) for t >= 0, falling from s = p'/q'
    # toward a; below upper = u/v exactly when t > (v*p' - u*q') / (u*q - v*p)
    p, q = a.numerator, a.denominator
    u, v = upper.numerator, upper.denominator
    t = max((v * s.numerator - u * s.denominator) // (u * q - v * p) + 1, 0)
    return Slope(s.numerator + t * p, s.denominator + t * q)


def shortest_increasing_path(start: Slope, to: Slope) -> tuple[Slope, ...]:
    """The shortest strictly increasing edge path from start to to.

    Greedy on the largest admissible neighbor.  Any increasing path from a
    vertex below the edge (y, n) to a vertex above it must pass through n
    (Farey edges do not cross), so stepping from y to n = its greatest
    neighbor below the target never lengthens the path; this is the
    continued-fraction expansion of the target relative to the start.

    One integer recurrence: keep the previous vertex x and the current vertex
    y as integer pairs, with A = I(y, to) and B = I(x, to) taken with sign,
    from x = start - successor(start).  The neighbors of y are the pairs
    j*y - x, with signed I(j*y - x, to) = j*A - B; the least j with
    j*A > B, j = B // A + 1, gives the greatest one below to, and its A is
    j*A - B = A - B mod A.  x and y span an edge, so gcd(A, B) = 1, and
    while A > 1 B mod A is nonzero, so A falls at every step.  At A = 1, y
    has an edge to to: the last step.
    """
    if not start < to:
        raise FareyError(f"path requires start < target, got {start} >= {to}")
    u, v = to.numerator, to.denominator
    s = successor(start)
    yp, yq = start.numerator, start.denominator
    xp, xq = yp - s.numerator, yq - s.denominator
    a, b = u * yq - v * yp, u * xq - v * xp
    vertices = [start]
    while a > 1:
        j = b // a + 1
        xp, xq, yp, yq = yp, yq, j * yp - xp, j * yq - xq
        a, b = a - b % a, a
        vertices.append(Slope(yp, yq))
    vertices.append(to)
    return tuple(vertices)


def mediant(a: Slope, b: Slope) -> Slope:
    """Farey subdivision (p+r)/(q+s) of the edge pair a = p/q, b = r/s.

    Defined only on edge pairs; then the mediant has an edge to both inputs
    and lies strictly between them.
    """
    if not is_edge(a, b):
        raise FareyError(f"mediant requires an edge pair, got {a}, {b}")
    return Slope(a.numerator + b.numerator, a.denominator + b.denominator)
