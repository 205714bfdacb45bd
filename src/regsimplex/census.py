"""Simplex censuses, three ways.

* coordinate brute force over an exact embedding,
* a k-clique count over the tick arithmetic of a structured configuration,
* the closed-form structured count by simplex type.

Type breakdown by circle multiplicity: delta1 has all vertices on distinct
circles, delta2 has at least one same-circle pair and no triple, delta3 has
three vertices on one circle (k = 3 only).  Mixed simplices have squared
side 2*radius_sq, single-circle triangles 3*radius_sq.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .geometry import PointSet, sq_dist
from .exactnum import Quad3
from .formulas import count_polynomial
from .lenz import CircleConfig

QUARTER = "quarter"
THIRD = "third"
OTHER = "other"
ZERO = "zero"


@dataclass(frozen=True)
class CountReport:
    delta1: int
    delta2: int
    delta3: int
    side_length_sq: Optional[Fraction] = None

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


def is_structured_simplex(
    config: CircleConfig, selection: Sequence[tuple[int, int]]
) -> bool:
    """Whether k labeled points (circle, tick) are pairwise equidistant.

    Cross-circle distances all equal sqrt(2)*radius, so a mixed selection is
    regular iff every same-circle pair sits at a quarter turn.  A selection
    on a single circle (possible only for k = 3) is regular iff all three
    pairs sit at a third of a turn.  Three points pairwise at 90 degrees on
    one circle cannot exist, so no mixed simplex uses three points of one
    circle.
    """
    if len(set(selection)) != len(selection):
        raise ValueError("selection points must be distinct")
    by_circle: dict[int, list[int]] = {}
    for ci, t in selection:
        by_circle.setdefault(ci, []).append(t)
    if len(by_circle) == 1:
        (ci, ticks), = by_circle.items()
        if len(ticks) != 3:
            return False
        N = config.components[ci].modulus
        return all(
            tick_chord_class(N, b - a) == THIRD for a, b in combinations(ticks, 2)
        )
    for ci, ticks in by_circle.items():
        if len(ticks) > 2:
            return False
        if len(ticks) == 2:
            N = config.components[ci].modulus
            if tick_chord_class(N, ticks[1] - ticks[0]) != QUARTER:
                return False
    return True


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
    last = k - 2

    def extend(prefix, cand, used, paired):
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            ext = cand & graph[v]
            if ext:
                state = (
                    prefix + (v,), ext, used | circle[v], paired or bool(used & low)
                )
                if len(prefix) == last:
                    yield state
                else:
                    yield from extend(*state)

    return extend((), (1 << len(graph)) - 1, 0, False)


def structured_simplices(config: CircleConfig, k: int) -> list[tuple[int, ...]]:
    """Every structured regular simplex, as ascending indices into
    config.labeled_points(): the k-cliques of the compatible-pair graph
    and, for k = 3, the triangles of the third-turn graph."""
    if k < 3:
        raise ValueError("need k >= 3")
    compatible, thirds, circle = _pair_graphs(config)
    graphs = (compatible, thirds) if k == 3 else (compatible,)
    return [
        prefix + (w,)
        for graph in graphs
        for prefix, ext, _, _ in _clique_frontiers(graph, circle, k)
        for w in _bits(ext)
    ]


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
    return CountReport(d1, d2, d3, side_length_sq=side_sq)


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
    return CountReport(d1, d2, d3, side_length_sq=side_sq)


def count_brute_force(
    P: PointSet, k: int, side_sq: Optional[Quad3] = None
) -> int:
    """Number of k-subsets of P that are regular simplices, by coordinates.

    With side_sq given, only simplices of that exact squared side count.
    """
    if len(P) < k:
        raise ValueError("need at least k points")
    n = len(P)
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = sq_dist(P.points[i], P.points[j])
    count = 0
    for sub in combinations(range(n), k):
        side = dist[sub[0]][sub[1]]
        if side.is_zero():
            continue
        if side_sq is not None and side != side_sq:
            continue
        if all(dist[a][b] == side for a, b in combinations(sub, 2)):
            count += 1
    return count
