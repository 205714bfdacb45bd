"""Uniform hypergraphs: the simplex hypergraph of a point configuration,
the padded-clique pattern, blowups, and a desk-scale containment checker.

Containment follows the Turan convention: a copy of H in G is an injective
vertex map sending every edge of H to an edge of G; non-edges of H are
unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Union

from .census import coordinate_simplices, structured_simplices
from .geometry import PointSet
from .lenz import CircleConfig, check_json_type


@dataclass(frozen=True)
class Hypergraph:
    n: int
    k: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.n < 0 or self.k < 1:
            raise ValueError(f"need n >= 0 and k >= 1, got n={self.n}, k={self.k}")
        for e in self.edges:
            if len(e) != self.k:
                raise ValueError("edge of wrong size")
            if any(not 0 <= v < self.n for v in e):
                raise ValueError("edge vertex out of range")

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
        list of integer vertices; bad input raises ValueError."""
        check_json_type(obj, (dict,), "hypergraph JSON")
        try:
            n = check_json_type(obj["n"], (int,), "hypergraph JSON: n")
            k = check_json_type(obj["k"], (int,), "hypergraph JSON: k")
            edges = check_json_type(obj["edges"], (list,), "hypergraph JSON: edges")
        except KeyError as exc:
            raise ValueError(f"hypergraph JSON: missing key {exc.args[0]!r}") from None
        for e in edges:
            if type(e) is not list or any(type(v) is not int for v in e):
                raise ValueError(
                    "hypergraph JSON: each edge must be a list of integers"
                )
        return Hypergraph(n, k, frozenset(frozenset(e) for e in edges))


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


def contains_copy(G: Hypergraph, H: Hypergraph) -> bool:
    """Backtracking search for an injective edge-preserving map H -> G.

    Vertices of H are assigned in descending-degree order; candidates are
    filtered by degree and every fully mapped edge of H is checked at once.
    Intended for desk scale (v(H) up to ~16, v(G) up to ~40).
    """
    if G.k != H.k:
        raise ValueError("uniformities must match")
    if H.n > G.n or H.e > G.e:
        return False
    h_deg = [0] * H.n
    for e in H.edges:
        for v in e:
            h_deg[v] += 1
    g_deg = [0] * G.n
    for e in G.edges:
        for v in e:
            g_deg[v] += 1
    # Assignment order: greedily pick the vertex completing the most edges
    # of H given what is already placed (ties broken by degree), so edge
    # membership constraints prune as early as possible.
    order: list[int] = []
    placed: set[int] = set()
    while len(order) < H.n:
        def closable(v):
            return sum(1 for e in H.edges if v in e and e - {v} <= placed)

        nxt = max(
            (v for v in range(H.n) if v not in placed),
            key=lambda v: (closable(v), h_deg[v], -v),
        )
        order.append(nxt)
        placed.add(nxt)
    pos = {v: i for i, v in enumerate(order)}
    # For pruning: edges of H grouped by the assignment step completing them.
    edges_done_at = [[] for _ in range(H.n)]
    for e in H.edges:
        edges_done_at[max(pos[v] for v in e)].append(e)
    mapping = [-1] * H.n
    used = [False] * G.n

    def extend(step: int) -> bool:
        if step == H.n:
            return True
        hv = order[step]
        for gv in range(G.n):
            if used[gv] or g_deg[gv] < h_deg[hv]:
                continue
            mapping[hv] = gv
            ok = all(
                frozenset(mapping[v] for v in e) in G.edges
                for e in edges_done_at[step]
            )
            if ok:
                used[gv] = True
                if extend(step + 1):
                    return True
                used[gv] = False
        mapping[hv] = -1
        return False

    return extend(0)
