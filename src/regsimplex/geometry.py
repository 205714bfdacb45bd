"""Exact coordinate geometry over Q(rt3).

Squared distances, the regular-simplex predicate, the P -> Q equidistance
relation, affine spans, orthogonality of spans, and circumcenters.  All
predicates work on squared distances; square roots are never extracted, so
every quantity stays inside Q(rt3).
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .exactnum import Q3_ZERO, Quad3


class Value:
    """Base of the value classes: equality (same exact type only), hashing
    and repr all come from the field tuple that a subclass's `_key` returns.
    `_key` lists the fields in `__init__`'s order, so the repr evaluates
    back to an equal value."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"


class Point(Value):
    """A point of Q(rt3)^d; a value, never mutated."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Quad3, ...]):
        self.coords = coords

    def _key(self) -> tuple:
        return (self.coords,)

    def __len__(self) -> int:
        return len(self.coords)


class PointSet(Value):
    """Pairwise distinct points of one ambient dimension; a value, never
    mutated."""

    __slots__ = ("dim", "points")

    def __init__(self, dim: int, points: tuple[Point, ...]):
        self.dim = dim
        self.points = points
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point dimension does not match ambient dimension")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    def _key(self) -> tuple:
        return self.dim, self.points

    def __len__(self) -> int:
        return len(self.points)


def sq_dist(p: Point, q: Point) -> Quad3:
    """Exact squared Euclidean distance."""
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    acc = Q3_ZERO
    for x, y in zip(p.coords, q.coords):
        d = x - y
        acc = acc + d * d
    return acc


def is_regular_simplex(pts: Sequence[Point]) -> bool:
    """True iff all pairwise squared distances agree and are nonzero."""
    if len(pts) < 2:
        raise ValueError("a simplex needs at least 2 vertices")
    side = sq_dist(pts[0], pts[1])
    if side.is_zero():
        return False
    for p, q in combinations(pts, 2):
        if sq_dist(p, q) != side:
            return False
    return True


def arrow_relation(P: PointSet, Q: PointSet) -> bool:
    """True iff every point of P is equidistant from all points of Q."""
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch")
    for p in P.points:
        d0 = sq_dist(p, Q.points[0])
        if any(sq_dist(p, q) != d0 for q in Q.points[1:]):
            return False
    return True


def _dot(u: Sequence[Quad3], v: Sequence[Quad3]) -> Quad3:
    acc = Q3_ZERO
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


def _eliminate(rows: list[list[Quad3]]) -> list[list[Quad3]]:
    """Row-echelon form over Q(rt3); returns the nonzero rows."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    echelon: list[list[Quad3]] = []
    piv_r = 0
    for col in range(ncols):
        pivot = None
        for i in range(piv_r, len(rows)):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[piv_r], rows[pivot] = rows[pivot], rows[piv_r]
        pv = rows[piv_r][col]
        for i in range(piv_r + 1, len(rows)):
            if rows[i][col].is_zero():
                continue
            factor = rows[i][col] / pv
            for c in range(col, ncols):
                rows[i][c] = rows[i][c] - factor * rows[piv_r][c]
        piv_r += 1
        if piv_r == len(rows):
            break
    return rows[:piv_r]


def solve_linear(A: list[list[Quad3]], b: list[Quad3]) -> Optional[list[Quad3]]:
    """Solve A x = b exactly; None when inconsistent.

    A must have full column rank (free variables are not supported; the
    callers only ever build systems with independent columns).
    """
    n_rows = len(A)
    n_cols = len(A[0]) if n_rows else 0
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    ech = _eliminate(aug)
    # Inconsistent iff some echelon row is 0 = nonzero.
    pivots = []
    for row in ech:
        col = next((c for c in range(n_cols) if not row[c].is_zero()), None)
        if col is None:
            if not row[n_cols].is_zero():
                return None
        else:
            pivots.append((col, row))
    if len(pivots) < n_cols:
        raise ValueError("underdetermined system")
    x: list[Quad3] = [Q3_ZERO] * n_cols
    for col, row in reversed(pivots):
        acc = row[n_cols]
        for c in range(col + 1, n_cols):
            acc = acc - row[c] * x[c]
        x[col] = acc / row[col]
    return x


def _difference_vectors(P: PointSet) -> list[list[Quad3]]:
    base = P.points[0]
    return [
        [x - y for x, y in zip(p.coords, base.coords)] for p in P.points[1:]
    ]


def affine_span_dim(P: PointSet) -> int:
    """Rank over Q(rt3) of the difference vectors relative to the first point."""
    if len(P) == 0:
        raise ValueError("empty point set")
    return len(_eliminate(_difference_vectors(P)))


def spans_orthogonal(P: PointSet, Q: PointSet) -> bool:
    """True iff every pair of difference vectors of P and Q is orthogonal."""
    if len(P) < 2 or len(Q) < 2:
        raise ValueError("both sets need at least 2 points")
    dP = _difference_vectors(P)
    dQ = _difference_vectors(Q)
    return all(_dot(u, v).is_zero() for u in dP for v in dQ)


def circumcenter(P: PointSet) -> Point:
    """The unique point of Aff(P) equidistant from all points of P.

    Solved inside the affine span: c = p1 + sum t_j b_j, where the b_j are
    the nonzero echelon rows of the difference vectors p_i - p1, a basis of
    their span.  That keeps the columns of the linear system independent and
    avoids underdetermined ambient formulations.  Raises
    ValueError("not cospherical") when no such point exists.
    """
    if len(P) == 0:
        raise ValueError("empty point set")
    diffs = _difference_vectors(P)
    basis = _eliminate(diffs)
    # Equations 2 <c - p1, d_i> = |d_i|^2 for every difference vector d_i.
    two = Quad3.of(2)
    A = [[two * _dot(bj, di) for bj in basis] for di in diffs]
    rhs = [_dot(di, di) for di in diffs]
    if not basis:
        return P.points[0]
    t = solve_linear(A, rhs)
    if t is None:
        raise ValueError("not cospherical")
    base = P.points[0]
    coords = list(base.coords)
    for tj, bj in zip(t, basis):
        coords = [c + tj * bc for c, bc in zip(coords, bj)]
    return Point(tuple(coords))

