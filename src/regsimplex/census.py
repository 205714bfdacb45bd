"""Simplex censuses, three ways.

* a k-clique count over the exact squared distances of a point set,
* a k-clique count over the tick arithmetic of a structured configuration,
* the closed-form structured count by simplex type.

Type breakdown by circle multiplicity: delta1 has all vertices on distinct
circles, delta2 has at least one same-circle pair and no triple, delta3 has
three vertices on one circle (k = 3 only).  Mixed simplices have squared
side 2*radius_sq, single-circle triangles 3*radius_sq.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from operator import sub
from typing import NamedTuple, Optional, Sequence

from .geometry import PointSet
from .exactnum import Quad3
from .formulas import count_polynomial
from .lenz import CircleConfig

QUARTER = "quarter"
THIRD = "third"
OTHER = "other"
ZERO = "zero"


class CountReport(NamedTuple):
    delta1: int
    delta2: int
    delta3: int

    @property
    def total(self) -> int:
        return self.delta1 + self.delta2 + self.delta3

    def to_json(self) -> dict:
        return {
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
            "total": self.total,
        }

    def to_csv_row(self) -> str:
        return f"{self.delta1},{self.delta2},{self.delta3},{self.total}"


def tick_chord_class(N: int, dt: int) -> str:
    """Chord class of a tick difference: quarter (90 deg), third (120 deg),
    zero, or other."""
    if N % 12 != 0:
        raise ValueError("modulus must be divisible by 12")
    dt %= N
    if dt == 0:
        return ZERO
    if dt in (N // 4, 3 * N // 4):
        return QUARTER
    if dt in (N // 3, 2 * N // 3):
        return THIRD
    return OTHER


def _tick_set(ticks: Sequence[int], N: int) -> set[int]:
    if N % 12 != 0:
        raise ValueError("modulus must be divisible by 12")
    return {t % N for t in ticks}


def count_good_pairs(ticks: Sequence[int], N: int) -> int:
    """Unordered same-circle pairs at 90 degrees (chord sqrt2 * radius).

    Each such pair is counted once, from the tick a quarter turn behind the
    other; ticks are taken modulo N and assumed distinct there.
    """
    S = _tick_set(ticks, N)
    return sum(1 for t in S if (t + N // 4) % N in S)


def count_inscribed_triangles(ticks: Sequence[int], N: int) -> int:
    """Tick triples pairwise at 120 degrees (inscribed equilateral triangles).

    Each triangle is seen once from each of its three vertices; ticks are
    taken modulo N and assumed distinct there.
    """
    S = _tick_set(ticks, N)
    third = N // 3
    return sum(
        1 for t in S if (t + third) % N in S and (t + 2 * third) % N in S
    ) // 3


def _side_modes(config: CircleConfig, side_sq: Optional[Fraction]):
    """Which simplex families a side filter admits: (mixed, single_circle)."""
    if side_sq is None:
        return True, True
    return side_sq == 2 * config.radius_sq, side_sq == 3 * config.radius_sq


def _pair_graphs(config: CircleConfig) -> tuple[list[int], list[int], list[int]]:
    """Two graphs on the labeled points as int bitsets, plus circle masks.

    Row i of each graph holds only the neighbors with a larger index.  The
    compatible-pair graph joins points on different circles, and points on
    one circle a quarter turn apart; the third-turn graph joins points on
    one circle a third of a turn apart.  circle[i] has a bit for every
    point on the circle of point i.
    """
    compatible: list[int] = []
    thirds: list[int] = []
    circle: list[int] = []
    n = config.n
    start = 0
    for comp in config.components:
        end = start + comp.size
        later_circles = ((1 << n) - 1) ^ ((1 << end) - 1)
        mask = ((1 << end) - 1) ^ ((1 << start) - 1)
        for a, t in enumerate(comp.ticks):
            quarter = third = 0
            for b in range(a + 1, comp.size):
                kind = tick_chord_class(comp.modulus, comp.ticks[b] - t)
                if kind == QUARTER:
                    quarter |= 1 << (start + b)
                elif kind == THIRD:
                    third |= 1 << (start + b)
            compatible.append(later_circles | quarter)
            thirds.append(third)
            circle.append(mask)
        start = end
    return compatible, thirds, circle


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_frontiers(graph: list[int], circle: list[int], k: int):
    """Walk the k-cliques of graph in index order, one level short.

    Yields (prefix, ext, used, paired) for every (k-1)-clique prefix that
    extends at all.  ext is the bitset of common neighbors above the
    prefix; each of its bits completes one k-clique.  used is the union of
    the prefix's circle masks, and paired says whether two prefix points
    share a circle.
    """
    return _extend(graph, circle, k - 2, (), (1 << len(graph)) - 1, 0, False)


def _extend(graph, circle, last, prefix, cand, used, paired):
    """The frontiers of _clique_frontiers below prefix, whose common
    neighbors above it are cand; last is the prefix length to yield at."""
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        ext = cand & graph[v]
        if ext:
            state = (prefix + (v,), ext, used | circle[v], paired or bool(used & low))
            if len(prefix) == last:
                yield state
            else:
                yield from _extend(graph, circle, last, *state)


def _cliques(graphs, circle: list[int], k: int):
    """Every k-clique of each graph, as a tuple of ascending indices."""
    for graph in graphs:
        for prefix, ext, _, _ in _clique_frontiers(graph, circle, k):
            for w in _bits(ext):
                yield prefix + (w,)


def structured_simplices(config: CircleConfig, k: int) -> list[tuple[int, ...]]:
    """Every structured regular simplex, as ascending indices into
    config.labeled_points(): the k-cliques of the compatible-pair graph
    and, for k = 3, the triangles of the third-turn graph."""
    if k < 3:
        raise ValueError("need k >= 3")
    compatible, thirds, circle = _pair_graphs(config)
    graphs = (compatible, thirds) if k == 3 else (compatible,)
    return list(_cliques(graphs, circle, k))


def brute_force_structured(
    config: CircleConfig, k: int, side_sq: Optional[Fraction] = None
) -> CountReport:
    """Tick census by clique counting, independent of the closed form.

    Three points on one circle are never pairwise a quarter turn apart, so
    the k-cliques of the compatible-pair graph (see _pair_graphs) are
    exactly the mixed simplices; for k = 3 the triangles of the third-turn
    graph are the single-circle ones.  The walk stops one level short and
    adds popcounts: a completing point makes the simplex delta2 when the
    prefix already has a same-circle pair or the point lies on a circle the
    prefix uses, and delta1 otherwise.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    allow_mixed, allow_single = _side_modes(config, side_sq)
    compatible, thirds, circle = _pair_graphs(config)
    d1 = d2 = d3 = 0
    if allow_mixed:
        for _, ext, used, paired in _clique_frontiers(compatible, circle, k):
            hits = ext.bit_count()
            same = hits if paired else (ext & used).bit_count()
            d1 += hits - same
            d2 += same
    if k == 3 and allow_single:
        d3 = sum(
            ext.bit_count() for _, ext, _, _ in _clique_frontiers(thirds, circle, 3)
        )
    return CountReport(d1, d2, d3)


def count_structured(
    config: CircleConfig, k: int, side_sq: Optional[Fraction] = None
) -> CountReport:
    """Closed-form census from per-circle sizes, good pairs, and triangles.

    With s_i the circle sizes and g_i their good-pair counts, delta1 is
    [x^k] prod_i (1 + s_i x) and delta1 + delta2 is
    [x^k] prod_i (1 + s_i x + g_i x^2) (see formulas.count_polynomial);
    delta3 (k = 3 only) sums the per-circle inscribed-triangle counts.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    allow_mixed, allow_single = _side_modes(config, side_sq)
    d1 = d2 = d3 = 0
    if allow_mixed:
        sizes = [c.size for c in config.components]
        gp = [count_good_pairs(c.ticks, c.modulus) for c in config.components]
        d1, mixed = count_polynomial(sizes, gp, k)
        d2 = mixed - d1
    if k == 3 and allow_single:
        d3 = sum(
            count_inscribed_triangles(c.ticks, c.modulus) for c in config.components
        )
    return CountReport(d1, d2, d3)


def _distance_graphs(P: PointSet, k: int, side_sq: Optional[Quad3]):
    """One graph per exact squared distance in P (only side_sq, when given);
    row i holds the larger-index neighbors as an int bitset.

    P is scaled once by D, the lcm of every coordinate denominator, into
    flat integer rows (a1, b1, a2, b2, ...) with coordinate j equal to
    (a_j + b_j*rt3)/D.  A squared distance a + b*rt3 is then the integer
    pair (A, B) = (D^2*a, D^2*b), which keys the graphs; side_sq matches
    as (D^2*side_sq.a, D^2*side_sq.b), so a side whose D^2 multiple is not
    an integer pair matches no pair of points.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    if len(P) < k:
        raise ValueError("need at least k points")
    n = len(P)
    D = lcm(*(q.denominator for p in P.points for x in p.coords for q in (x.a, x.b)))
    rows = [
        [q.numerator * (D // q.denominator) for x in p.coords for q in (x.a, x.b)]
        for p in P.points
    ]
    want = None if side_sq is None else (side_sq.a * D * D, side_sq.b * D * D)
    graphs: defaultdict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * n)
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            diff = map(sub, row, rows[j])
            A = B = 0
            for da, db in zip(diff, diff):
                A += da * da + 3 * db * db
                B += da * db
            side = (A, 2 * B)
            if want is None or side == want:
                graphs[side][i] |= 1 << j
    return graphs.values()


def count_brute_force(P: PointSet, k: int, side_sq: Optional[Quad3] = None) -> int:
    """Number of k-subsets of P that are regular simplices, by coordinates:
    the k-cliques of the distance graphs, walked with zero circle masks.
    With side_sq given, only simplices of that exact squared side count."""
    zeros = [0] * len(P)
    graphs = _distance_graphs(P, k, side_sq)
    return sum(
        e.bit_count() for g in graphs for _, e, _, _ in _clique_frontiers(g, zeros, k)
    )


def coordinate_simplices(
    P: PointSet, k: int, side_sq: Optional[Quad3] = None
) -> list[tuple[int, ...]]:
    """The cliques count_brute_force counts, as ascending indices into P.points."""
    return list(_cliques(_distance_graphs(P, k, side_sq), [0] * len(P), k))
