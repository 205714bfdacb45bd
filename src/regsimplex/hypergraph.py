"""Uniform hypergraphs: the simplex hypergraph of a point configuration,
the padded-clique pattern, blowups, and a desk-scale containment checker.

Containment follows the Turan convention: a copy of H in G is an injective
vertex map sending every edge of H to an edge of G; non-edges of H are
unconstrained.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from math import comb
from typing import NamedTuple, Union

from .census import _bits, _cliques, coordinate_simplices, structured_simplices
from .geometry import PointSet, Value
from .lenz import CircleConfig, check_json_type


class Hypergraph(Value):
    """A k-uniform hypergraph on the vertices 0..n-1; a value, never
    mutated."""

    __slots__ = ("n", "k", "edges")

    def __init__(self, n: int, k: int, edges: frozenset[frozenset[int]]):
        self.n = n
        self.k = k
        self.edges = edges
        _check(n, k, edges, set().union(*edges))

    def _key(self) -> tuple:
        return self.n, self.k, self.edges

    @property
    def e(self) -> int:
        return len(self.edges)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "edges": sorted(sorted(e) for e in self.edges),
        }

    @staticmethod
    def from_json(obj: dict) -> "Hypergraph":
        """Parse an object with integers n and k and a list of edges, each a
        list of distinct integer vertices, no two edges alike; bad input
        raises ValueError (see _read for the order of the checks)."""
        n, k, edges, _ = _read(obj)
        return Hypergraph(n, k, frozenset(map(frozenset, edges)))


class Index(NamedTuple):
    """A k-uniform hypergraph on 0..n-1 as contains_copy searches it.  Only
    the m vertices that lie in an edge are indexed, relabelled 0..m-1 in
    increasing order, so the size follows the edges and not n: edges holds
    the edge bitsets, deg[v] the degree of v and shadow[v] the vertices
    sharing an edge with v."""

    n: int
    k: int
    edges: set[int]
    deg: list[int]
    shadow: list[int]

    @staticmethod
    def from_json(obj: dict) -> "Index":
        """Hypergraph JSON read straight into its Index, building no
        frozenset; bad input raises ValueError as in Hypergraph.from_json."""
        n, k, _, bitsets = _read(obj)
        return _rows(n, k, *bitsets)


def _check(n: int, k: int, edges, vertices) -> None:
    """Raise ValueError unless n >= 0, k >= 1, every edge has k vertices
    and the collection vertices lies in [0, n)."""
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    if set(map(len, edges)) - {k}:
        raise ValueError("edge of wrong size")
    # n may come from JSON, so the range check never builds range(n).
    if vertices and (min(vertices) < 0 or max(vertices) >= n):
        raise ValueError("edge vertex out of range")


def _read(obj) -> tuple[int, int, list[list[int]], tuple]:
    """Check hypergraph JSON for Hypergraph.from_json and Index.from_json;
    return n, k, the edge lists and their _bitsets.  The checks run in this
    order, so a file with several faults names the first: JSON types, then
    _check's (n and k, edge size, vertex range), then a repeated vertex in
    an edge, then a repeated edge."""
    check_json_type(obj, (dict,), "hypergraph JSON")
    try:
        n = check_json_type(obj["n"], (int,), "hypergraph JSON: n")
        k = check_json_type(obj["k"], (int,), "hypergraph JSON: k")
        edges = check_json_type(obj["edges"], (list,), "hypergraph JSON: edges")
    except KeyError as exc:
        raise ValueError(f"hypergraph JSON: missing key {exc.args[0]!r}") from None
    # True == 1, so only a check by type keeps a bool out of the vertices
    if set(map(type, edges)) - {list} or (
        set(map(type, chain.from_iterable(edges))) - {int}
    ):
        raise ValueError("hypergraph JSON: each edge must be a list of integers")
    flat = list(chain.from_iterable(edges))
    vertices = set(flat)
    _check(n, k, edges, vertices)
    m, relabelled, masks = _bitsets(k, flat, vertices)
    # k distinct bits sum to k ones, and a repeated bit to fewer
    if set(map(int.bit_count, masks)) - {k}:
        raise ValueError("hypergraph JSON: repeated vertex in an edge")
    if len(set(masks)) != len(masks):
        raise ValueError("hypergraph JSON: repeated edge")
    return n, k, edges, (m, relabelled, masks)


def build_simplex_hypergraph(
    source: Union[PointSet, CircleConfig], k: int
) -> Hypergraph:
    """One vertex per point, one edge per regular (k-1)-simplex, listed by
    the census clique walk: structured_simplices for a configuration (whose
    vertices are its labeled points), coordinate_simplices for a point set."""
    if isinstance(source, CircleConfig):
        n, edges = source.n, structured_simplices(source, k)
    else:
        n, edges = len(source), coordinate_simplices(source, k)
    return Hypergraph(n, k, frozenset(map(frozenset, edges)))


def make_pattern_H(r: int, k: int) -> Hypergraph:
    """The k-uniform pattern from K_{r+1}: each clique edge padded with k-2
    fresh vertices.  It has (r+1) + C(r+1,2)(k-2) vertices and C(r+1,2)
    edges."""
    if k < 3 or r < 2:
        raise ValueError("need k >= 3 and r >= 2")
    n = r + 1
    next_vertex = n
    edges = set()
    for u, v in combinations(range(n), 2):
        pad = range(next_vertex, next_vertex + k - 2)
        next_vertex += k - 2
        edges.add(frozenset({u, v, *pad}))
    assert next_vertex == (r + 1) + comb(r + 1, 2) * (k - 2)
    return Hypergraph(next_vertex, k, frozenset(edges))


def blowup(H: Hypergraph, t: int) -> Hypergraph:
    """Replace each vertex with an independent t-set and each edge with the
    t^k transversal edges across the corresponding t-sets."""
    if t < 1:
        raise ValueError("need t >= 1")
    edges = {
        frozenset(choice)
        for e in H.edges
        for choice in product(*(range(v * t, v * t + t) for v in e))
    }
    return Hypergraph(H.n * t, H.k, frozenset(edges))


def contains_copy(G: Union[Hypergraph, Index], H: Union[Hypergraph, Index]) -> bool:
    """Backtracking search for an injective edge-preserving map H -> G.

    G and H are each a Hypergraph or its Index; hypergraph --contains
    reads its files straight into Index values (Index.from_json), and a
    Hypergraph is indexed here (see _index).
    The shadow graph of a hypergraph joins two vertices when they share an
    edge.  A copy maps a clique of H's shadow onto a clique of G's, so the
    answer is False at once when G's shadow has no clique as large as the
    largest one in H's.  Otherwise the search runs on Python-int bitsets of
    G's vertices: shadow[v] holds the vertices that share an edge with v,
    and link[f] the vertices that complete the (k-1)-set f (as a bitset key)
    to an edge.  The index holds the shadow rows, the degrees and the set
    of edge bitsets; a link is looked up in that set the first time the
    search asks for it and kept for the rest of the call, so the cost
    follows the search and not the size of G.  H's vertices are placed
    greedily, next the one closing the most edges of H (ties to higher
    degree, then lower index).  The candidates of H-vertex hv are the free
    G-vertices of at least its degree, intersected with the shadow of the
    image of every placed H-neighbour and the link of the image of e - hv
    for every edge e the step closes; they are tried lowest first.
    Twins are ordered (see _twins): H-vertices u and v are twins when
    swapping them maps H's edges onto themselves.  Twins form classes, and
    any permutation inside a class is an automorphism of H, so composing a
    copy with one gives another copy; hence if there is a copy there is one
    whose images increase, within each class, in the order the plan places
    the class.  The search looks for that one only: a step keeps just the
    candidates above the image of the twin placed last before it.
    Only the vertices that lie in an edge are indexed: once H.n <= G.n,
    an isolated H-vertex can take any unused G-vertex.
    Intended for desk scale (v(H) up to ~16, v(G) up to ~40).
    """
    if G.k != H.k:
        raise ValueError("uniformities must match")
    if H.n > G.n or len(H.edges) > len(G.edges):
        return False
    G, H = (F if isinstance(F, Index) else _index(F) for F in (G, H))
    g_edges, g_deg, g_shadow = G.edges, G.deg, G.shadow
    h_edges, h_deg, h_shadow = H.edges, H.deg, H.shadow
    size = _clique_number(h_shadow)
    if size >= 2 and next(_cliques(g_shadow, size), None) is None:
        return False
    degree_ok = {
        d: sum(1 << g for g, g_d in enumerate(g_deg) if g_d >= d) for d in set(h_deg)
    }
    twin = _twins(h_edges, h_deg)
    last = {}
    plan = []
    placed = 0
    while len(plan) < len(h_deg):
        # closes[v]: the rests e - v of the edges e that placing v completes
        closes = {v: [] for v in range(len(h_deg)) if not placed >> v & 1}
        for e in h_edges:
            left = e & ~placed
            if left and not left & (left - 1):
                closes[left.bit_length() - 1].append(e ^ left)
        hv = max(closes, key=lambda v: (len(closes[v]), h_deg[v], -v))
        covered = 0
        for rest in closes[hv]:
            covered |= rest
        neighbours = h_shadow[hv] & placed & ~covered
        rests = [tuple(_bits(rest)) for rest in closes[hv]]
        after = last.get(twin[hv])
        last[twin[hv]] = hv
        plan.append((hv, degree_ok[h_deg[hv]], after, tuple(_bits(neighbours)), rests))
        placed |= 1 << hv
    every = (1 << len(g_deg)) - 1
    shadow = {1 << v: row for v, row in enumerate(g_shadow)}
    return _place(plan, 0, [0] * len(h_deg), every, shadow, _Links(g_edges, every))


def _index(F: Hypergraph) -> Index:
    """The Index of F, whose edges Hypergraph has already checked."""
    flat = list(chain.from_iterable(F.edges))
    return _rows(F.n, F.k, *_bitsets(F.k, flat, set(flat)))


def _bitsets(k: int, flat: list[int], vertices: set[int]) -> tuple:
    """m, edges and masks for edges of k vertices each, listed edge after
    edge in flat, whose m vertices are the set vertices: each vertex is
    relabelled by its rank in vertices, edges holds the relabelled edges
    as k-tuples and masks their bitsets, summed from one bit per vertex so
    that no bit is shifted by a vertex itself."""
    if not flat:  # only an edge bounds k, and the slicing below repeats k
        return 0, [], []
    support = sorted(vertices)
    m = len(support)
    if support[-1] != m - 1:  # some vertex lies in no edge
        flat = list(map(dict(zip(support, range(m))).__getitem__, flat))
    bits = [1 << v for v in range(m)]
    masks = list(map(sum, zip(*[map(bits.__getitem__, flat)] * k)))
    return m, list(zip(*[iter(flat)] * k)), masks


def _rows(n: int, k: int, m: int, edges: list[tuple], masks: list[int]) -> Index:
    """The Index of the edges and masks that _bitsets gives: the degrees
    and shadow rows read in one loop over the (edge, vertex) pairs."""
    deg = [0] * m
    shadow = [0] * m
    for e, mask in zip(edges, masks):
        for v in e:
            deg[v] += 1
            shadow[v] |= mask
    return Index(n, k, set(masks), deg, [row ^ 1 << v for v, row in enumerate(shadow)])


def _twins(edges: set[int], deg: list[int]) -> list[int]:
    """twin[v]: the least vertex u such that swapping u and v maps the edge
    bitsets edges onto themselves, v itself when there is none.  Twinhood
    is an equivalence (the swaps (u v) and (v w) give (u w)), so v is
    tested against one member of each earlier class, and only at equal
    degree."""
    twin = []
    for v, d in enumerate(deg):
        for u in set(twin):
            pair = 1 << u | 1 << v
            # the swap fixes an edge holding both or neither of u and v
            moved = (e for e in edges if e & pair not in (0, pair))
            if deg[u] == d and all(e ^ pair in edges for e in moved):
                twin.append(u)
                break
        else:
            twin.append(v)
    return twin


class _Links(dict):
    """link[f]: the vertices that complete the (k-1)-set with bitset f to
    one of the edge bitsets edges, found among the vertices of the bitset
    every on first lookup and kept."""

    def __init__(self, edges: set[int], every: int):
        super().__init__()
        self.edges = edges
        self.every = every

    def __missing__(self, key: int) -> int:
        value = 0
        cand = self.every
        while cand:
            low = cand & -cand
            cand ^= low
            if key | low in self.edges:
                value |= low
        self[key] = value
        return value


def _clique_number(shadow: list[int]) -> int:
    """Clique number of the graph with full neighbour rows shadow."""
    size = min(len(shadow), 1)
    while next(_cliques(shadow, size + 1), None) is not None:
        size += 1
    return size


def _place(plan, step: int, image: list[int], free: int, shadow, link) -> bool:
    """Map the H-vertices of plan[step:].  image[u] is the bit of the image
    of each H-vertex u placed before, free holds the unused G-vertices, and
    shadow and link are G's index, shadow keyed by a vertex's bit.  A step
    whose twin after was placed before takes only images above after's."""
    if step == len(plan):
        return True
    hv, cand, after, neighbours, closing = plan[step]
    cand &= free
    if after is not None:
        cand &= -(image[after] << 1)
    for u in neighbours:
        cand &= shadow[image[u]]
    for rest in closing:
        key = 0
        for u in rest:
            key |= image[u]
        cand &= link[key]
    while cand:
        low = cand & -cand
        cand ^= low
        image[hv] = low
        if _place(plan, step + 1, image, free ^ low, shadow, link):
            return True
    return False
