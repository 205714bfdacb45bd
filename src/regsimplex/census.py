"""Simplex censuses, three ways.

* a k-clique count over the exact squared distances of a point set, or of
  a configuration's points read straight from its ticks,
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
from functools import reduce
from math import lcm
from operator import mul, or_
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import PointSet
from .exactnum import Quad3, cos30_table, sin30_table
from .formulas import count_polynomial
from .lenz import CircleConfig, embedding_steps

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


#: Chord class of a tick difference of j twelfths of a turn, j = 0..11; a
#: difference that is no whole number of twelfths is OTHER.
CHORD_BY_TWELFTHS = (
    ZERO, OTHER, OTHER, QUARTER, THIRD, OTHER, OTHER, OTHER, THIRD, QUARTER, OTHER, OTHER
)


def tick_chord_class(N: int, dt: int) -> str:
    """Chord class of a tick difference: quarter (90 deg), third (120 deg),
    zero, or other."""
    if N % 12 != 0:
        raise ValueError("modulus must be divisible by 12")
    twelfth = N // 12
    dt %= N
    return OTHER if dt % twelfth else CHORD_BY_TWELFTHS[dt // twelfth]


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
    """The compatible-pair, cross-circle and third-turn graphs on the
    labeled points, as full neighbour rows (int bitsets).

    The cross-circle graph joins points on different circles; the
    compatible-pair graph adds the pairs on one circle a quarter turn
    apart; the third-turn graph joins points on one circle a third of a
    turn apart.  Each point looks its partners up at the quarter and third
    steps of CHORD_BY_TWELFTHS in a dict from tick residue to point index,
    so a circle costs O(its points) whatever its modulus.
    """
    compatible: list[int] = []
    cross: list[int] = []
    thirds: list[int] = []
    everyone = (1 << config.n) - 1
    start = 0
    for comp in config.components:
        N = comp.modulus
        steps = [
            (j * N // 12, kind)
            for j, kind in enumerate(CHORD_BY_TWELFTHS)
            if kind in (QUARTER, THIRD)
        ]
        index = {t % N: i for i, t in enumerate(comp.ticks, start)}
        end = start + comp.size
        off_circle = everyone ^ ((1 << end) - (1 << start))
        for t in comp.ticks:
            quarter = third = 0
            for step, kind in steps:
                j = index.get((t + step) % N)
                if j is not None:
                    if kind == QUARTER:
                        quarter |= 1 << j
                    else:
                        third |= 1 << j
            compatible.append(off_circle | quarter)
            cross.append(off_circle)
            thirds.append(third)
        start = end
    return compatible, cross, thirds


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_frontiers(graph: list[int], k: int):
    """Walk the k-cliques of graph, given by full neighbour rows, in index
    order, one level short.

    Yields (prefix, ext) for every (k-1)-clique prefix that extends at
    all: ext is the bitset of common neighbors above the prefix, and each
    of its bits completes one k-clique.
    """
    return _extend(graph, k - 2, (), (1 << len(graph)) - 1)


def _extend(graph, last, prefix, cand):
    """The frontiers of _clique_frontiers below prefix, whose common
    neighbors above it are cand; last is the prefix length to yield at."""
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        ext = cand & graph[v]
        if ext:
            if len(prefix) == last:
                yield prefix + (v,), ext
            else:
                yield from _extend(graph, last, prefix + (v,), ext)


def _cliques(graphs, k: int):
    """Every k-clique of each graph, as a tuple of ascending indices."""
    for graph in graphs:
        for prefix, ext in _clique_frontiers(graph, k):
            for w in _bits(ext):
                yield prefix + (w,)


def _join_factors(graph: list[int], piece: int) -> list[int]:
    """The join factors of graph (full neighbour rows) on the points of the
    bitset piece: the components of its complement there, as bitsets, by a
    breadth-first search."""
    factors = []
    while piece:
        factor = frontier = piece & -piece
        piece ^= factor
        while frontier and piece:
            low = frontier & -frontier
            frontier ^= low
            apart = piece & ~graph[low.bit_length() - 1]
            factor |= apart
            frontier |= apart
            piece ^= apart
        factors.append(factor)
    return factors


def _count_cliques(graph: list[int], k: int) -> int:
    """Number of k-cliques (k >= 2) of a graph given by full neighbour rows.

    No such clique holds an isolated point, so the count drops them and
    splits the rest into join factors (see _join_factors).  The clique
    polynomial of a join is the product of its factors' (Hoede and Li,
    Discrete Math. 1994), so the count is coefficient k of the product of
    the factors' counts of cliques of each size up to k; agreement of a
    brute-force route with the closed form thus checks its graphs and this
    lemma, not a second listing of every simplex.  A plain walk counts a
    factor's cliques: it reads only the neighbours above each vertex and
    stops one level short, with one popcount of the common neighbours.  A
    factor's complement is connected, so it splits no further; a factor
    that is a disjoint union is walked whole, at a cost of its cliques of
    size at most k.
    """
    if k > len(graph):
        return 0
    total = [1] + [0] * k

    def walk(counts: list[int], size: int, cand: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            ext = cand & graph[low.bit_length() - 1]
            if ext:
                counts[size] += ext.bit_count()
                if size < k:
                    walk(counts, size + 1, ext)

    # Rows are symmetric, so their union is the points with a neighbour.
    for factor in _join_factors(graph, reduce(or_, graph, 0)):
        counts = [1, factor.bit_count()] + [0] * (k - 1)
        walk(counts, 2, factor)
        for j in range(k, 0, -1):
            total[j] += sum(map(mul, total[:j], reversed(counts[1 : j + 1])))
    return total[k]


def structured_simplices(config: CircleConfig, k: int) -> list[tuple[int, ...]]:
    """Every structured regular simplex, as ascending indices into
    config.labeled_points(): the k-cliques of the compatible-pair graph
    and, for k = 3, the triangles of the third-turn graph."""
    if k < 3:
        raise ValueError("need k >= 3")
    compatible, _, thirds = _pair_graphs(config)
    graphs = (compatible, thirds) if k == 3 else (compatible,)
    return list(_cliques(graphs, k))


def brute_force_structured(
    config: CircleConfig, k: int, side_sq: Optional[Fraction] = None
) -> CountReport:
    """Tick census by clique counting, independent of the closed form.

    Three points on one circle are never pairwise a quarter turn apart, so
    the k-cliques of the compatible-pair graph (see _pair_graphs) are
    exactly the mixed simplices, delta1 + delta2; for k = 3 the triangles
    of the third-turn graph are the single-circle ones.  The k-cliques of
    the cross-circle graph, whose join factors (see _count_cliques) are the
    circles, are the delta1 simplices.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    allow_mixed, allow_single = _side_modes(config, side_sq)
    compatible, cross, thirds = _pair_graphs(config)
    d1 = d2 = d3 = 0
    if allow_mixed:
        d1 = _count_cliques(cross, k)
        d2 = _count_cliques(compatible, k) - d1
    if k == 3 and allow_single:
        d3 = _count_cliques(thirds, 3)
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


#: Coordinate-oracle rows: per point, each nonzero coordinate (scaled by a
#: common D) as an integer pair (a, b) standing for a + b*rt3.
_Rows = list[dict[int, tuple[int, int]]]

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


def _config_rows(config: CircleConfig) -> tuple[int, _Rows]:
    """Coordinate-oracle input for a configuration: (D, rows) with D = 2,
    row i holding the doubled nonzero coordinates of labeled point i (see
    lenz.embedding_steps, which refuses what cannot be embedded).

    Component refuses ticks that repeat modulo the modulus, distinct ticks
    on 30-degree multiples have distinct steps, and points on different
    circles have disjoint nonzero coordinates, so the rows need no
    distinctness check; they are sparse, so ambient_dim costs nothing.
    """
    return 2, [
        {coord + offset: pair for offset, pair in _TWICE_TRIG30[step]}
        for coord, step in embedding_steps(config)
    ]


def _point_set_rows(P: PointSet) -> tuple[int, _Rows]:
    """Coordinate-oracle input for any point set over Q(rt3): (D, rows)
    with D the lcm of every coordinate denominator, so that coordinate c
    of point i, (a + b*rt3)/D, is the integer pair rows[i][c] = (a, b);
    zero coordinates are left out."""
    ratios = [
        [(x.a.as_integer_ratio(), x.b.as_integer_ratio()) for x in p]
        for p in P.points
    ]
    D = lcm(*(den for row in ratios for pair in row for _, den in pair))
    rows = [
        {
            c: (a * (D // da), b * (D // db))
            for c, ((a, da), (b, db)) in enumerate(row)
            if a or b
        }
        for row in ratios
    ]
    return D, rows


def _coordinate_rows(source: Union[CircleConfig, PointSet]) -> tuple[int, _Rows]:
    """(D, rows) for _distance_graphs from either front end."""
    if isinstance(source, CircleConfig):
        return _config_rows(source)
    return _point_set_rows(source)


def _distance_graphs(D: int, rows: _Rows, side_sq: Optional[Quad3]) -> dict:
    """One graph per exact squared distance among the points of rows (only
    side_sq, when given), keyed by that distance scaled by D^2, as full
    neighbour rows (int bitsets).

    rows[i] maps each nonzero coordinate of point i, scaled by D, to the
    integer pair (a, b) standing for a + b*rt3 (see _config_rows and
    _point_set_rows).  A squared distance a + b*rt3 is then the integer
    pair (D^2*a, D^2*b), which keys the graphs; side_sq matches as
    (D^2*side_sq.a, D^2*side_sq.b), so a side whose D^2 multiple is not an
    integer pair matches no pair of points.  Each point's squared norm is
    such a pair too.  Two points that share no nonzero coordinate are at
    squared distance norm_i + norm_j, so those pairs join a graph in bulk,
    one bitset per row and norm; only pairs that share a coordinate take a
    dot product, once per pair.
    """
    n = len(rows)
    norms: list[tuple[int, int]] = []
    sharing: defaultdict[int, int] = defaultdict(int)  # coordinate -> points
    by_norm: defaultdict[tuple[int, int], int] = defaultdict(int)  # norm -> points
    for i, support in enumerate(rows):
        for c in support:
            sharing[c] |= 1 << i
        norm = (
            sum(a * a + 3 * b * b for a, b in support.values()),
            2 * sum(a * b for a, b in support.values()),
        )
        norms.append(norm)
        by_norm[norm] |= 1 << i
    graphs: defaultdict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * n)
    everyone = (1 << n) - 1
    for i, (support, (A, B)) in enumerate(zip(rows, norms)):
        shared = 1 << i
        for c in support:
            shared |= sharing[c]
        apart = everyone ^ shared
        if apart:
            for (A2, B2), members in by_norm.items():
                if members & apart:
                    graphs[A + A2, B + B2][i] |= members & apart
        for j in _bits(shared >> (i + 1) << (i + 1)):
            other = rows[j]
            dot_a = dot_b = 0
            for c, (a, b) in support.items():
                if c in other:
                    a2, b2 = other[c]
                    dot_a += a * a2 + 3 * b * b2
                    dot_b += a * b2 + b * a2
            A2, B2 = norms[j]
            graph = graphs[A + A2 - 2 * dot_a, B + B2 - 2 * dot_b]
            graph[i] |= 1 << j
            graph[j] |= 1 << i
    if side_sq is None:
        return graphs
    want = (side_sq.a * D * D, side_sq.b * D * D)
    return {want: graphs[want]}


def count_brute_force(
    source: Union[CircleConfig, PointSet], k: int, side_sq: Optional[Quad3] = None
) -> int:
    """Number of k-subsets of the points that are regular simplices, by
    coordinates: the k-cliques of the distance graphs.  source is a point
    set over Q(rt3), or a configuration whose ticks are 30-degree
    multiples, read as its labeled points on the unit circles with no
    PointSet built (see _config_rows).  With side_sq given, only simplices
    of that exact squared side count."""
    if k < 3:
        raise ValueError("need k >= 3")
    graphs = _distance_graphs(*_coordinate_rows(source), side_sq).values()
    return sum(_count_cliques(graph, k) for graph in graphs)


def coordinate_simplices(
    source: Union[CircleConfig, PointSet], k: int, side_sq: Optional[Quad3] = None
) -> list[tuple[int, ...]]:
    """The cliques count_brute_force counts, as ascending indices into the
    points of source (P.points, or config.labeled_points())."""
    if k < 3:
        raise ValueError("need k >= 3")
    graphs = _distance_graphs(*_coordinate_rows(source), side_sq).values()
    return list(_cliques(graphs, k))
