"""Exact coordinate geometry over Q(rt3).

Squared distances, the regular-simplex predicate, the P -> Q equidistance
relation, affine spans, orthogonality of spans, and circumcenters.  All
predicates work on squared distances; square roots are never extracted, so
every quantity stays inside Q(rt3).
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

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


class PointSet(Value):
    """Pairwise distinct points of one ambient dimension, each a tuple of
    Quad3 coordinates; a value, never mutated."""

    __slots__ = ("dim", "points")

    def __init__(self, dim: int, points: tuple[tuple[Quad3, ...], ...]):
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


def sq_dist(p: Sequence[Quad3], q: Sequence[Quad3]) -> Quad3:
    """Exact squared Euclidean distance."""
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    acc = Q3_ZERO
    for x, y in zip(p, q):
        d = x - y
        acc = acc + d * d
    return acc


def is_regular_simplex(pts: Sequence[Sequence[Quad3]]) -> bool:
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


def _difference_vectors(P: PointSet) -> list[list[Quad3]]:
    base = P.points[0]
    return [[x - y for x, y in zip(p, base)] for p in P.points[1:]]


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


def circumcenter(P: PointSet) -> tuple[Quad3, ...]:
    """The unique point of Aff(P) equidistant from all points of P.

    Solved inside the affine span: c = p1 + sum t_j b_j, where the b_j are
    the nonzero echelon rows of the difference vectors d_i = p_i - p1, a
    basis of their span.  Each d_i is a combination of the b_j, whose Gram
    matrix is invertible, so the equations 2 <c - p1, d_i> = |d_i|^2 have
    full column rank in the t_j: the echelon form of their augmented rows
    has its pivots on the diagonal, plus a row 0 = nonzero exactly when no
    such point exists.  Raises ValueError("not cospherical") then.
    """
    if len(P) == 0:
        raise ValueError("empty point set")
    diffs = _difference_vectors(P)
    basis = _eliminate(diffs)
    two = Quad3.of(2)
    echelon = _eliminate(
        [[two * _dot(bj, di) for bj in basis] + [_dot(di, di)] for di in diffs]
    )
    m = len(basis)
    if len(echelon) > m:
        raise ValueError("not cospherical")
    t = [Q3_ZERO] * m
    for j in reversed(range(m)):
        row = echelon[j]
        acc = row[m]
        for c in range(j + 1, m):
            acc = acc - row[c] * t[c]
        t[j] = acc / row[j]
    coords = P.points[0]
    for tj, bj in zip(t, basis):
        coords = tuple(c + tj * bc for c, bc in zip(coords, bj))
    return coords
