"""Extremal point configurations on orthogonal circles.

Builds the even-dimension construction (r orthogonal unit circles carrying
dodecagon copies plus a carefully ordered remainder), the odd-dimension
skeleton (r-1 circles and one 2-sphere), and the case-analysis partition
that maximizes the triangle count.

Positions on a circle are "ticks": residues modulo N, angle 2*pi*tick/N.
All moduli are multiples of 12 so the dodecagon chords live at tick
differences N/12 * {1..6}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactnum import Quad3, cos30_table, sin30_table
from .geometry import PointSet, Value

#: remainder fill order v1,v4,v7,v10,v2,v5,v8,v11,v3,v6,v9,v12 (0-indexed)
REMAINDER_ORDER = (0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11)


class Component(Value):
    """One circle (or 2-sphere) of a configuration; a value, never mutated."""

    __slots__ = ("kind", "modulus", "ticks")

    def __init__(self, kind: str, modulus: int, ticks: tuple[int, ...]):
        self.kind = kind  # "circle" or "sphere2"
        self.modulus = modulus
        self.ticks = ticks
        if self.kind not in ("circle", "sphere2"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.modulus <= 0 or self.modulus % 12 != 0:
            raise ValueError("modulus must be a positive multiple of 12")
        if len(set(t % self.modulus for t in self.ticks)) != len(self.ticks):
            raise ValueError("ticks must be distinct modulo the modulus")

    def _key(self) -> tuple:
        return self.kind, self.modulus, self.ticks

    @property
    def size(self) -> int:
        return len(self.ticks)

    @property
    def width(self) -> int:
        """Ambient coordinates occupied: 2 for a circle, 3 for a 2-sphere."""
        return 3 if self.kind == "sphere2" else 2


class CircleConfig(NamedTuple):
    """r mutually orthogonal components with a common center and radius.

    Component i occupies ambient coordinates (2i, 2i+1); a trailing sphere2
    component occupies three coordinates, its points lying on the great
    circle of the first two.
    """

    ambient_dim: int
    radius_sq: Fraction
    components: tuple[Component, ...]

    @property
    def n(self) -> int:
        return sum(c.size for c in self.components)

    def labeled_points(self) -> list[tuple[int, int]]:
        """All points as (component index, tick), in deterministic order."""
        return [(i, t) for i, c in enumerate(self.components) for t in c.ticks]


def theorem12_partition(n: int, r: int) -> tuple[int, ...]:
    """The case-selected partition (n_1,...,n_r) maximizing the triangle count.

    p is the remainder of n modulo 2r; the four cases split on p < r and on
    the parity of p.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    if n < r:
        raise ValueError("need n >= r")
    q = n // r
    p = n % (2 * r)
    if p < r and p % 2 == 0:
        part = (q,) * (r - p // 2) + (q + 2,) * (p // 2)
    elif p < r:
        part = (q,) * (r - (p + 1) // 2) + (q + 1,) + (q + 2,) * ((p - 1) // 2)
    elif p % 2 == 0:
        part = (q - 1,) * (r - p // 2) + (q + 1,) * (p // 2)
    else:
        part = (q - 1,) * (r - (p + 1) // 2) + (q,) + (q + 1,) * ((p - 1) // 2)
    assert sum(part) == n
    return part


def place_on_circle(n_i: int) -> tuple[int, tuple[int, ...]]:
    """Tick placement of n_i points: full dodecagon copies plus a remainder.

    With m = max(1, ceil(n_i/12)) the modulus is N = 12m and copy j of the
    dodecagon occupies ticks {j + c*m : c in 0..11}.  Distinct copies are
    offset by less than m ticks, so no cross-copy chord lands on a quarter
    (N/4 = 3m) or third (N/3 = 4m) of the circle.  The remainder fills one
    further copy in the order v1,v4,v7,v10,v2,...
    """
    if n_i < 0:
        raise ValueError("negative point count")
    m = max(1, -(-n_i // 12))
    N = 12 * m
    full = n_i // 12
    ticks = [j + c * m for j in range(full) for c in range(12)]
    rem = n_i - 12 * full
    ticks += [full + c * m for c in REMAINDER_ORDER[:rem]]
    return N, tuple(sorted(ticks))


def build_even_config(n: int, r: int, partition: tuple[int, ...]) -> CircleConfig:
    """r orthogonal unit circles in R^{2r} with the standard placement."""
    if r < 3:
        raise ValueError("need r >= 3")
    if len(partition) != r or sum(partition) != n:
        raise ValueError("partition must have r entries summing to n")
    comps = []
    for n_i in partition:
        N, ticks = place_on_circle(n_i)
        comps.append(Component("circle", N, ticks))
    return CircleConfig(ambient_dim=2 * r, radius_sq=Fraction(1), components=tuple(comps))


def build_odd_config(n: int, r: int) -> CircleConfig:
    """r-1 circles plus one 2-sphere in R^{2r+1}, points split evenly.

    Larger classes go to the lowest-indexed components.  Sphere points sit
    on a designated great circle, so tick arithmetic applies unchanged; the
    denser sphere packings known from repeated-distance constructions are
    not reproduced here.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    if n < 0:
        raise ValueError("negative point count")
    base, extra = divmod(n, r)
    sizes = [base + 1] * extra + [base] * (r - extra)
    comps = []
    for i, n_i in enumerate(sizes):
        N, ticks = place_on_circle(n_i)
        kind = "sphere2" if i == r - 1 else "circle"
        comps.append(Component(kind, N, ticks))
    return CircleConfig(ambient_dim=2 * r + 1, radius_sq=Fraction(1), components=tuple(comps))


#: The nonzero coordinates of the point at step s*30 degrees on a unit
#: circle, doubled so that they are integer pairs (a, b) standing for
#: a + b*rt3: (offset, pair) for cos at offset 0 and sin at offset 1, from
#: exactnum's table.
_TWICE_TRIG30 = tuple(
    tuple(
        (offset, (int(2 * x.a), int(2 * x.b)))
        for offset, x in enumerate((cos30_table(s), sin30_table(s)))
        if not x.is_zero()
    )
    for s in range(12)
)


#: Sparse exact coordinates: per point, each nonzero coordinate (scaled by a
#: common D) as an integer pair (a, b) standing for a + b*rt3.
Rows = list[dict[int, tuple[int, int]]]


def embedding(config: CircleConfig) -> tuple[int, Rows]:
    """Exact coordinates of the labeled points: (D, rows) with D = 2, row i
    holding the nonzero coordinates of labeled point i, times D.

    Tick t on modulus N sits at angle step 12*t/N (taken modulo 12), which
    must be an integer for coordinates to stay in Q(rt3); placements with
    more than one dodecagon copy per circle are therefore not embeddable.
    The point then has coordinates cos and sin of step*30 degrees at its
    component's first coordinate and the next.  Raises ValueError when the
    components need more than ambient_dim coordinates, a tick is no
    30-degree multiple, or the radius is not 1.  Component refuses repeated
    ticks, and circles share no coordinate, so the rows are distinct.
    """
    rows = []
    coord = 0
    for comp in config.components:
        if coord + comp.width > config.ambient_dim:
            raise ValueError("components exceed ambient dimension")
        for t in comp.ticks:
            if (12 * t) % comp.modulus != 0:
                raise ValueError(
                    "tick is not a multiple of 30 degrees; cannot embed exactly"
                )
            trig = _TWICE_TRIG30[(12 * t // comp.modulus) % 12]
            rows.append({coord + offset: pair for offset, pair in trig})
        coord += comp.width
    if config.radius_sq != 1:
        raise ValueError("embedding assumes unit radius")
    return 2, rows


def embed_config(config: CircleConfig) -> PointSet:
    """The points of embedding(config) as a dense PointSet of ambient_dim
    Quad3 coordinates per point, for the geometry lemmas and the test
    references; the coordinate census reads the rows directly."""
    D, rows = embedding(config)
    zero = Quad3.of(0)
    pts = []
    for row in rows:
        coords = [zero] * config.ambient_dim
        for c, (a, b) in row.items():
            coords[c] = Quad3(Fraction(a, D), Fraction(b, D))
        pts.append(tuple(coords))
    return PointSet(dim=config.ambient_dim, points=tuple(pts))


def config_to_json(config: CircleConfig) -> dict:
    """The object config_from_json reads; each component's ticks are written
    reduced modulo its modulus, ascending."""
    return {
        "ambient_dim": config.ambient_dim,
        "radius_sq": str(Fraction(config.radius_sq)),
        "components": [
            {
                "kind": c.kind,
                "modulus": c.modulus,
                "ticks": sorted(t % c.modulus for t in c.ticks),
            }
            for c in config.components
        ],
    }


_JSON_NAMES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def check_json_type(value, kinds: tuple[type, ...], what: str):
    """Return value if its JSON type is one of kinds, else raise ValueError.

    A boolean never counts as an integer, and a float never as anything but
    a number, so no float reaches the tick arithmetic.
    """
    if type(value) not in kinds:
        wanted = " or ".join(_JSON_NAMES[k] for k in kinds)
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be {wanted}, got {got}")
    return value


def config_from_json(obj: dict) -> CircleConfig:
    """Parse and validate a configuration; bad input raises ValueError.

    The JSON types must match config_to_json (radius_sq may also be an
    integer), ticks must lie in [0, N), the components must fit in
    ambient_dim, only the last component may be a 2-sphere, and radius_sq
    must be positive.
    """
    check_json_type(obj, (dict,), "config JSON")
    try:
        ambient_dim = check_json_type(
            obj["ambient_dim"], (int,), "config JSON: ambient_dim"
        )
        radius_sq = check_json_type(
            obj["radius_sq"], (str, int), "config JSON: radius_sq"
        )
        try:
            radius_sq = Fraction(radius_sq)
        except ValueError as exc:
            raise ValueError(f"config JSON: radius_sq: {exc}") from None
        components = []
        for i, c in enumerate(
            check_json_type(obj["components"], (list,), "config JSON: components")
        ):
            what = f"config JSON: component {i}"
            check_json_type(c, (dict,), what)
            ticks = check_json_type(c["ticks"], (list,), f"{what}: ticks")
            if any(type(t) is not int for t in ticks):
                raise ValueError(f"{what}: each tick must be an integer")
            modulus = check_json_type(c["modulus"], (int,), f"{what}: modulus")
            try:
                components.append(Component(c["kind"], modulus, tuple(ticks)))
            except ValueError as exc:
                raise ValueError(f"{what}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"config JSON: missing key {exc.args[0]!r}") from None
    except ZeroDivisionError:
        raise ValueError("config JSON: radius_sq has a zero denominator") from None
    if radius_sq <= 0:
        raise ValueError("config JSON: radius_sq must be positive")
    for i, c in enumerate(components):
        if c.kind == "sphere2" and i != len(components) - 1:
            raise ValueError(
                "config JSON: only the last component may be a sphere2"
            )
        if not all(0 <= t < c.modulus for t in c.ticks):
            raise ValueError(
                f"config JSON: component {i} has a tick outside [0, {c.modulus})"
            )
    width = sum(c.width for c in components)
    if width > ambient_dim:
        raise ValueError(
            f"config JSON: components need {width} coordinates, "
            f"ambient_dim is {ambient_dim}"
        )
    return CircleConfig(ambient_dim, radius_sq, tuple(components))
