"""Exact scalars: arbitrary-precision rationals and the field Q(rt3).

``Rational`` is the standard-library :class:`fractions.Fraction`; radii,
side filters and the coordinates of a ``PointSet`` are built on it.  ``Quad3``
represents a + b*rt3 with rational a, b, which is enough to house every
squared chord length between dodecagon vertices: 2-rt3, 1, 2, 3, 2+rt3, 4.
The coordinate census does not compute in ``Quad3``: it reads a
configuration's coordinates as integer pairs from a doubled copy of
``cos30_table``, or scales a point set once to integer pairs (see
``census._config_rows`` and ``census._point_set_rows``), so its squared
distances are integer pairs; ``Quad3`` arithmetic serves the geometry
lemmas, ``lenz.embed_config`` and the test references.

Sign determination is exact: no floating point is ever consulted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

Rational = Fraction


@total_ordering
class Quad3:
    """The real number a + b*rt3 with a, b rational; a value, never mutated.

    Equality is componentwise (1 and rt3 are linearly independent over Q),
    and the ordering is the ordering of the represented reals, decided by
    exact case analysis on the signs of a and b.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rational, b: Rational):
        self.a = a
        self.b = b

    def __eq__(self, other) -> bool:
        if type(other) is not Quad3:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"Quad3{(self.a, self.b)!r}"

    @staticmethod
    def of(a, b=0) -> "Quad3":
        return Quad3(Fraction(a), Fraction(b))

    def __add__(self, other: "Quad3") -> "Quad3":
        return Quad3(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Quad3") -> "Quad3":
        return Quad3(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "Quad3") -> "Quad3":
        # (a + b rt3)(c + d rt3) = (ac + 3bd) + (ad + bc) rt3
        return Quad3(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self) -> "Quad3":
        # 1/(a + b rt3) = (a - b rt3)/(a^2 - 3 b^2); the norm vanishes only
        # at zero because rt3 is irrational.
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(rt3)")
        return Quad3(self.a / norm, -self.b / norm)

    def __truediv__(self, other: "Quad3") -> "Quad3":
        return self * other.inverse()

    def sign(self) -> int:
        """Sign of a + b*rt3: -1, 0, or +1, decided exactly."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        # Opposite signs: the larger of a^2 and 3 b^2 wins.  They can only
        # be equal when both components are zero, which is excluded here.
        return sa if self.a * self.a > 3 * self.b * self.b else sb

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __lt__(self, other: "Quad3") -> bool:
        return (self - other).sign() < 0

    def __float__(self) -> float:
        # Non-authoritative; never used in predicates.
        return float(self.a) + float(self.b) * 3 ** 0.5

    def __str__(self) -> str:
        return f"{Fraction(self.a)}+{Fraction(self.b)}*rt3"

    @staticmethod
    def from_str(s: str) -> "Quad3":
        head, tail = s.rsplit("+", 1)
        if not tail.endswith("*rt3"):
            raise ValueError(f"malformed Quad3 string: {s!r}")
        return Quad3(Fraction(head), Fraction(tail[: -len("*rt3")]))


Q3_ZERO = Quad3.of(0)

# cos(s*30deg) for s = 0..11
_COS30 = [
    Quad3.of(1, 0),
    Quad3.of(0, Fraction(1, 2)),
    Quad3.of(Fraction(1, 2), 0),
    Quad3.of(0, 0),
    Quad3.of(Fraction(-1, 2), 0),
    Quad3.of(0, Fraction(-1, 2)),
    Quad3.of(-1, 0),
    Quad3.of(0, Fraction(-1, 2)),
    Quad3.of(Fraction(-1, 2), 0),
    Quad3.of(0, 0),
    Quad3.of(Fraction(1, 2), 0),
    Quad3.of(0, Fraction(1, 2)),
]


def cos30_table(step: int) -> Quad3:
    """Exact cos(step*30deg) for step in 0..11."""
    if not 0 <= step < 12:
        raise ValueError(f"step must be in 0..11, got {step}")
    return _COS30[step]


def sin30_table(step: int) -> Quad3:
    """Exact sin(step*30deg): cos shifted a quarter turn back."""
    if not 0 <= step < 12:
        raise ValueError(f"step must be in 0..11, got {step}")
    return _COS30[(step - 3) % 12]
