import json
import random
from itertools import combinations, permutations
from math import comb

import pytest

from regsimplex import hypergraph
from regsimplex.census import count_structured
from regsimplex.cli import main
from regsimplex.hypergraph import (
    Hypergraph,
    blowup,
    build_simplex_hypergraph,
    contains_copy,
    make_pattern_H,
)
from regsimplex.lenz import build_even_config, build_odd_config, embed_config


def naive_contains(G: Hypergraph, H: Hypergraph) -> bool:
    """Independent oracle: try every injective vertex map."""
    if H.n > G.n:
        return False
    for image in permutations(range(G.n), H.n):
        if all(frozenset(image[v] for v in e) in G.edges for e in H.edges):
            return True
    return False


# Six triples covering all 15 pairs of 6 vertices.
PAIR_COVER = Hypergraph(
    6,
    3,
    frozenset(
        frozenset(e)
        for e in [(0, 1, 2), (0, 1, 3), (0, 4, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
    ),
)


def random_hypergraph(rng, n, k, n_edges) -> Hypergraph:
    all_edges = list(combinations(range(n), k))
    chosen = rng.sample(all_edges, min(n_edges, len(all_edges)))
    return Hypergraph(n, k, frozenset(frozenset(e) for e in chosen))


class TestPattern:
    @pytest.mark.parametrize(
        "r,k,nv,ne", [(3, 3, 10, 6), (4, 3, 15, 10), (3, 4, 16, 6)]
    )
    def test_vertex_and_edge_counts(self, r, k, nv, ne):
        H = make_pattern_H(r, k)
        assert H.n == nv and H.e == ne

    def test_count_identity(self):
        for r, k in [(5, 3), (5, 4), (6, 5)]:
            H = make_pattern_H(r, k)
            assert H.n == (r + 1) + comb(r + 1, 2) * (k - 2)
            assert H.e == comb(r + 1, 2)

    def test_core_vertices_pairwise_covered(self):
        H = make_pattern_H(3, 3)
        core_pairs = {
            frozenset(e & set(range(4))) for e in H.edges
        }
        assert core_pairs == {frozenset(p) for p in combinations(range(4), 2)}


class TestHypergraphValidation:
    # n < 0 and k < 1 are rejected at the JSON boundary (tests/test_cli.py)
    def test_smallest_sizes_accepted(self):
        assert Hypergraph(0, 1, frozenset()).e == 0

    def test_huge_n_accepted(self):
        H = Hypergraph(10**15, 3, frozenset({frozenset({0, 1, 10**15 - 1})}))
        assert H.e == 1

    def test_value_equality_and_hash(self):
        H = make_pattern_H(3, 3)
        same = Hypergraph(H.n, H.k, frozenset(set(H.edges)))
        assert H == same and hash(H) == hash(same)
        assert len({H, same, blowup(H, 2)}) == 2
        assert H != Hypergraph(H.n + 1, H.k, H.edges)
        assert H != Hypergraph(H.n, H.k, H.edges - {next(iter(H.edges))})


class TestBlowup:
    def test_single_edge(self):
        H = Hypergraph(3, 3, frozenset({frozenset({0, 1, 2})}))
        B = blowup(H, 2)
        assert B.n == 6 and B.e == 8

    def test_identity(self):
        H = make_pattern_H(3, 3)
        B = blowup(H, 1)
        assert B.n == H.n and B.edges == {
            frozenset(v for v in e) for e in H.edges
        }

    def test_pattern_blowup(self):
        B = blowup(make_pattern_H(3, 3), 3)
        assert B.n == 30 and B.e == 162

    @pytest.mark.parametrize("r,k", [(2, 3), (3, 3), (4, 3), (3, 4), (5, 5)])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_edges_are_the_transversals(self, r, k, t):
        # a k-set is a blowup edge iff its vertices come from k distinct
        # t-sets whose original vertices form an edge; each edge has t^k
        H = make_pattern_H(r, k)
        B = blowup(H, t)
        assert B.e == t**k * H.e
        assert all(len({v // t for v in e}) == k for e in B.edges)
        assert {frozenset(v // t for v in e) for e in B.edges} == H.edges

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_scaling_laws(self, t):
        rng = random.Random(5)
        for _ in range(5):
            H = random_hypergraph(rng, rng.randint(3, 6), 3, rng.randint(1, 5))
            B = blowup(H, t)
            assert B.n == t * H.n and B.e == t ** H.k * H.e


class TestContainsCopy:
    def test_self_containment(self):
        G = make_pattern_H(3, 3)
        assert contains_copy(G, G)

    def test_too_small_host(self):
        G = Hypergraph(3, 3, frozenset({frozenset({0, 1, 2})}))
        H = make_pattern_H(3, 3)
        assert not contains_copy(G, H)

    def test_uniformity_mismatch(self):
        G = make_pattern_H(3, 3)
        H = make_pattern_H(3, 4)
        with pytest.raises(ValueError):
            contains_copy(G, H)

    # (k, G's vertex range, G's edge range, H's edge range, isolated
    # vertices added to H); H has 3 to 6 vertices before those
    ORACLE_CASES = [
        (3, (4, 10), (1, 12), (1, 4), 0),
        # no edges in H: a copy exists iff H.n <= G.n, even when G has no
        # edges either (so a clique bound may not start at k)
        (3, (4, 10), (0, 4), (0, 0), 0),
        (4, (4, 10), (0, 4), (0, 0), 0),
        (3, (4, 8), (1, 12), (1, 3), 2),
        (4, (5, 9), (1, 12), (1, 4), 0),
    ]

    def test_agrees_with_naive_oracle(self):
        for case in self.ORACLE_CASES:
            for G, H in _oracle_queries(*case):
                assert contains_copy(G, H) == naive_contains(G, H), (G, H)

    def test_cost_follows_the_edges_not_n(self):
        # Only the vertices in an edge are indexed, so n = 10**12 on both
        # sides answers at once; indexing all n vertices cannot finish.
        big = 10**12

        def edges(*triples):
            return frozenset(map(frozenset, triples))

        G = Hypergraph(big, 3, edges((0, 1, 2), (0, 1, big - 1), (5, 6, 7)))
        two_sharing_a_pair = Hypergraph(big, 3, edges((3, 4, big - 1), (3, 4, 9)))
        two_sharing_a_vertex = Hypergraph(big, 3, edges((3, 4, 9), (9, 10, 11)))
        assert contains_copy(G, two_sharing_a_pair)
        assert not contains_copy(G, two_sharing_a_vertex)
        assert contains_copy(G, Hypergraph(big, 3, frozenset()))
        assert not contains_copy(G, Hypergraph(big + 1, 3, edges((0, 1, 2))))

    def test_shadow_clique_refutes_pair_cover(self, monkeypatch):
        # Every pair of the 6 vertices shares an edge, so the cover's shadow
        # is a 6-clique; the (4, 4, 1) host's shadow misses the two
        # diameters of each full circle and has clique number 5.
        G = build_simplex_hypergraph(build_even_config(9, 3, (4, 4, 1)), 3)
        assert not naive_contains(G, PAIR_COVER)

        def no_search(*args):
            raise AssertionError("the clique bound should decide this query")

        monkeypatch.setattr(hypergraph, "_place", no_search)
        assert not contains_copy(G, PAIR_COVER)

    def test_pair_cover_found_when_shadow_has_the_clique(self):
        # one more point on the third circle: the shadow has a 6-clique
        G = build_simplex_hypergraph(build_even_config(10, 3, (4, 4, 2)), 3)
        assert contains_copy(G, PAIR_COVER)
        assert naive_contains(G, PAIR_COVER)

    def test_planted_copies_always_found(self):
        rng = random.Random(29)
        H = make_pattern_H(3, 3)
        for _ in range(100):
            extra = rng.randint(0, 6)
            n = H.n + extra
            relabel = list(range(n))
            rng.shuffle(relabel)
            edges = {frozenset(relabel[v] for v in e) for e in H.edges}
            # noise edges on top of the planted copy
            for _ in range(rng.randint(0, 10)):
                edges.add(frozenset(rng.sample(range(n), 3)))
            G = Hypergraph(n, 3, frozenset(edges))
            assert contains_copy(G, H)

    def test_blowup_agrees_with_limited_search(self):
        # Every vertex of a 2-blowup has a twin.  Here H blows up two
        # triples sharing a pair: the two copies of each shared vertex form
        # a class, and the four copies of the two unshared ones form one.
        # Half the hosts get a planted copy; the twin order must not lose it.
        H = blowup(Hypergraph(4, 3, frozenset(map(frozenset, [(0, 1, 2), (0, 1, 3)]))), 2)
        index = hypergraph._index(H)
        assert hypergraph._twins(index.edges, index.deg) == [0, 0, 2, 2, 4, 4, 4, 4]
        rng = random.Random(23)
        answers = []
        for i in range(16):
            n = rng.randint(8, 10)
            G = random_hypergraph(rng, n, 3, rng.randint(20, 60))
            if i % 2:
                relabel = rng.sample(range(n), H.n)
                planted = {frozenset(relabel[v] for v in e) for e in H.edges}
                G = Hypergraph(n, 3, G.edges | planted)
            answers.append(contains_copy(G, H))
            assert answers[-1] == _injective_search_limited(G, H), G
        assert True in answers[::2] and False in answers

    def test_lenz_simplex_graph_vs_pattern(self):
        # two dodecagons plus a singleton circle; cross-validated against the
        # all-injections route on the same instance via a planted relabeling
        config = build_even_config(25, 3, (12, 12, 1))
        G = build_simplex_hypergraph(config, 3)
        H = make_pattern_H(3, 3)
        assert contains_copy(G, H) == _injective_search_limited(G, H)


def _bitset(vertices) -> int:
    return sum(1 << v for v in vertices)


def _eager_links(G: Hypergraph) -> dict[int, int]:
    """Reference link table, one entry per (edge, vertex) pair: each rest
    e - v keyed by its bitset, OR-ing in the bit of v."""
    link: dict[int, int] = {}
    for e in G.edges:
        mask = _bitset(e)
        for v in e:
            rest = mask ^ 1 << v
            link[rest] = link.get(rest, 0) | 1 << v
    return link


def _planted_queries():
    """Seeded (G, H) pairs with a copy of H in G: pattern copies planted
    among noise edges, then sub-hypergraphs that simplex hypergraphs induce
    on 7 vertices."""
    rng = random.Random(31)
    for r, k in [(3, 3), (4, 3), (2, 4), (2, 5)]:
        H = make_pattern_H(r, k)
        for _ in range(8):
            n = H.n + rng.randint(0, 6)
            relabel = rng.sample(range(n), n)
            edges = {frozenset(relabel[v] for v in e) for e in H.edges}
            for _ in range(rng.randint(5, 3 * n)):
                edges.add(frozenset(rng.sample(range(n), k)))
            yield Hypergraph(n, k, frozenset(edges)), H
    for partition, k in [((4, 4, 4), 3), ((3, 3, 3, 3), 4)]:
        config = build_even_config(sum(partition), len(partition), partition)
        G = build_simplex_hypergraph(config, k)
        for _ in range(4):
            chosen = rng.sample(range(G.n), 7)
            label = dict(zip(chosen, rng.sample(range(7), 7))).__getitem__
            edges = (frozenset(map(label, e)) for e in G.edges if e <= set(chosen))
            yield G, Hypergraph(7, k, frozenset(edges))


def _oracle_queries(k, g_n, g_edges, h_edges, isolated):
    """60 seeded queries for one of TestContainsCopy.ORACLE_CASES."""
    rng = random.Random(13)
    for _ in range(60):
        G = random_hypergraph(rng, rng.randint(*g_n), k, rng.randint(*g_edges))
        H = random_hypergraph(rng, rng.randint(3, 6), k, rng.randint(*h_edges))
        yield G, Hypergraph(H.n + isolated, k, H.edges)


class TestLinksOnFirstUse:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_equal_the_eager_table(self, k):
        rng = random.Random(40 + k)
        in_an_edge = in_no_edge = 0
        for _ in range(12):
            n = rng.randint(k + 1, 9)
            G = random_hypergraph(rng, n, k, rng.randint(1, comb(n, k) // 2))
            link = hypergraph._Links({_bitset(e) for e in G.edges}, (1 << G.n) - 1)
            eager = _eager_links(G)
            assert set(eager) == {
                _bitset(f) for e in G.edges for f in combinations(e, k - 1)
            }
            # every (k-1)-set: the rests of G's edges and the sets in no edge
            for f in combinations(range(n), k - 1):
                key = _bitset(f)
                assert link[key] == eager.get(key, 0), (G, f)
                assert not link[key] & key
                in_an_edge += key in eager
                in_no_edge += key not in eager
        assert in_an_edge and in_no_edge


def _max_clique(rows) -> int:
    """Reference: the largest vertex set of the graph with full neighbour
    rows that is pairwise adjacent, by trying every subset."""
    return max(
        size
        for size in range(len(rows) + 1)
        for sub in combinations(range(len(rows)), size)
        if all(rows[a] >> b & 1 for a, b in combinations(sub, 2))
    )


class TestCliqueNumber:
    def test_random_graphs_match_subset_search(self):
        rng = random.Random(7)
        numbers = set()
        for _ in range(80):
            n = rng.randint(0, 10)
            p = rng.random()
            rows = [0] * n
            for a, b in combinations(range(n), 2):
                if rng.random() < p:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            number = hypergraph._clique_number(rows)
            assert number == _max_clique(rows), rows
            numbers.add(number)
        assert numbers >= set(range(6))

    @pytest.mark.parametrize("k", [3, 4])
    def test_shadow_rows_match_subset_search(self, k):
        rng = random.Random(50 + k)
        for _ in range(20):
            n = rng.randint(k, 9)
            G = random_hypergraph(rng, n, k, rng.randint(1, 6))
            shadow = hypergraph._index(G).shadow
            assert hypergraph._clique_number(shadow) == _max_clique(shadow)


@pytest.fixture
def place_calls(monkeypatch):
    """A one-item list that counts the _place calls made during the test."""
    calls = [0]
    place = hypergraph._place

    def counting(*args):
        calls[0] += 1
        return place(*args)

    monkeypatch.setattr(hypergraph, "_place", counting)
    return calls


class TestSameSearchAnyLabels:
    # _place calls per query, with twins placed in increasing order; finding
    # links on first use must not change which nodes the search visits
    PLANTED_CALLS = [
        132, 69, 97, 32, 21, 11, 77, 879, 245, 3565, 1791, 1348, 16, 156,
        1378, 449, 15, 260, 56, 92, 26, 10, 25, 68, 404, 560, 2653,
        682, 404, 120, 31, 768, 8, 8, 8, 8, 8, 8, 8, 8,
    ]
    # summed over the 60 queries of each of TestContainsCopy.ORACLE_CASES
    ORACLE_CALLS = [277, 54, 56, 119, 646]
    # the same before twins were ordered, recorded with a link table built
    # up front from every (edge, vertex) pair of G; ordering twins only
    # removes nodes
    UNORDERED_PLANTED_CALLS = [
        132, 69, 97, 32, 21, 11, 77, 879, 245, 3565, 1791, 1348, 16, 156,
        1378, 449, 15, 588, 110, 147, 29, 10, 49, 118, 5115, 7649, 29630,
        4227, 6101, 2310, 32, 9161, 8, 8, 8, 8, 8, 8, 8, 8,
    ]
    UNORDERED_ORACLE_CALLS = [299, 54, 56, 126, 1024]

    def test_place_calls_unchanged(self, place_calls):
        planted = []
        for G, H in _planted_queries():
            place_calls[0] = 0
            assert contains_copy(G, H)
            planted.append(place_calls[0])
        assert planted == self.PLANTED_CALLS
        assert all(map(int.__le__, planted, self.UNORDERED_PLANTED_CALLS))
        oracle = []
        for case in TestContainsCopy.ORACLE_CASES:
            place_calls[0] = 0
            for G, H in _oracle_queries(*case):
                contains_copy(G, H)
            oracle.append(place_calls[0])
        assert oracle == self.ORACLE_CALLS
        assert all(map(int.__le__, oracle, self.UNORDERED_ORACLE_CALLS))

    def test_blowup_probe_refuted(self, place_calls):
        # The 2-blowup of H(2, 3) passes the clique bound in the (12, 12, 1)
        # host; ordering its six twin pairs keeps the refutation under
        # 600,000 nodes, so it answers in about a second.
        G = build_simplex_hypergraph(build_even_config(25, 3, (12, 12, 1)), 3)
        assert not contains_copy(G, blowup(make_pattern_H(2, 3), 2))
        assert place_calls[0] == 594182

    def test_relabelling_keeps_the_answer(self):
        # vertices moved injectively into [0, 3n) leave gaps that _index
        # closes; H.n <= G.n holds after the move exactly when it did before
        rng = random.Random(17)

        def spread(F):
            label = rng.sample(range(3 * F.n), F.n)
            edges = frozenset(frozenset(label[v] for v in e) for e in F.edges)
            return Hypergraph(3 * F.n, F.k, edges)

        queries = list(_planted_queries())
        for case in TestContainsCopy.ORACLE_CASES:
            queries += _oracle_queries(*case)
        for G, H in queries:
            assert contains_copy(spread(G), spread(H)) == contains_copy(G, H), (G, H)


class TestSameSearchThroughTheCli:
    # hypergraph --contains reads each file straight into the index that
    # contains_copy builds from a Hypergraph; the answers and the search
    # must be the same
    @staticmethod
    def cli_contains(tmp_path, capsys, G, H) -> bool:
        paths = []
        for F, name in ((G, "g.json"), (H, "h.json")):
            paths.append(str(tmp_path / name))
            (tmp_path / name).write_text(json.dumps(F.to_json()))
        assert main(["hypergraph", "--contains", *paths]) == 0
        return json.loads(capsys.readouterr().out)["contains"]

    def test_answers_as_contains_copy(self, tmp_path, capsys):
        queries = list(_planted_queries())
        for case in TestContainsCopy.ORACLE_CASES:
            queries += _oracle_queries(*case)
        answers = set()
        for G, H in queries:
            answer = contains_copy(G, H)
            assert self.cli_contains(tmp_path, capsys, G, H) is answer, (G, H)
            answers.add(answer)
        assert answers == {True, False}

    def test_one_contains_copy_call(self, tmp_path, capsys, monkeypatch):
        # the benchmark's per-layer tracing times and counts the command's
        # search by its contains_copy calls
        calls = []

        def counting(G, H):
            calls.append((type(G), type(H)))
            return contains_copy(G, H)

        monkeypatch.setattr(hypergraph, "contains_copy", counting)
        assert self.cli_contains(tmp_path, capsys, *next(_planted_queries())) is True
        assert calls == [(hypergraph.Index, hypergraph.Index)]

    def test_deadline_query_makes_the_same_calls(self, tmp_path, capsys, place_calls):
        G = build_simplex_hypergraph(build_even_config(25, 3, (12, 12, 1)), 3)
        H = blowup(make_pattern_H(2, 3), 2)
        assert self.cli_contains(tmp_path, capsys, G, H) is False
        assert place_calls[0] == 594182


def _injective_search_limited(G, H):
    # brute-force injective enumeration with only injectivity pruning,
    # ordered exactly by vertex index (independent of contains_copy's order)
    def rec(mapping):
        v = len(mapping)
        if v == H.n:
            return True
        for g in range(G.n):
            if g in mapping:
                continue
            trial = mapping + [g]
            ok = all(
                frozenset(trial[u] for u in e) in G.edges
                for e in H.edges
                if max(e) < v + 1
            )
            if ok and rec(trial):
                return True
        return False

    return rec([])


class TestSimplexHypergraph:
    def test_trivial(self):
        G = build_simplex_hypergraph(build_even_config(3, 3, (1, 1, 1)), 3)
        assert G.n == 3 and G.e == 1

    def test_dodecagon(self):
        config = build_even_config(12, 3, (12, 0, 0))
        G = build_simplex_hypergraph(embed_config(config), 3)
        assert G.n == 12 and G.e == 4

    @pytest.mark.parametrize(
        "config,k",
        [
            (build_even_config(36, 3, (12, 12, 12)), 3),
            (build_even_config(20, 3, (6, 6, 8)), 3),
            (build_odd_config(15, 3), 3),
            (build_even_config(16, 4, (4, 4, 4, 4)), 4),
        ],
    )
    def test_edge_count_matches_census(self, config, k):
        G = build_simplex_hypergraph(config, k)
        assert G.e == count_structured(config, k).total

    def test_coordinate_route_agrees(self):
        config = build_even_config(20, 3, (6, 6, 8))
        G_ticks = build_simplex_hypergraph(config, 3)
        G_coords = build_simplex_hypergraph(embed_config(config), 3)
        assert G_ticks.edges == G_coords.edges

    def test_json_round_trip(self):
        H = make_pattern_H(3, 3)
        assert Hypergraph.from_json(H.to_json()) == H
