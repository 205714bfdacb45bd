import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from regsimplex import census, formulas
from regsimplex.census import (
    CountReport,
    brute_force_structured,
    count_brute_force,
    count_good_pairs,
    count_inscribed_triangles,
    count_structured,
    coordinate_simplices,
    structured_simplices,
    tick_chord_class,
)
from regsimplex.exactnum import Quad3
from regsimplex.geometry import PointSet, is_regular_simplex, sq_dist
from regsimplex.lenz import (
    CircleConfig,
    Component,
    build_even_config,
    build_odd_config,
    embed_config,
    embedding,
)
from regsimplex.hypergraph import build_simplex_hypergraph
from test_formulas import subset_expansion


def pairwise_good_pairs(ticks, N):
    """Reference: pairs whose tick difference is a quarter turn."""
    return sum(
        1 for a, b in combinations(ticks, 2) if tick_chord_class(N, b - a) == "quarter"
    )


def pairwise_triangles(ticks, N):
    """Reference: triples pairwise a third of a turn apart."""
    return sum(
        1
        for tri in combinations(ticks, 3)
        if all(tick_chord_class(N, b - a) == "third" for a, b in combinations(tri, 2))
    )


@st.composite
def tick_sets(draw, max_size=16, turns=2):
    """(ticks, N): distinct residues, each shifted by up to turns multiples
    of N."""
    N = 12 * draw(st.integers(1, 4))
    residues = draw(st.sets(st.integers(0, N - 1), max_size=min(N, max_size)))
    return tuple(t + N * draw(st.integers(-turns, turns)) for t in sorted(residues)), N


@st.composite
def tick_configs(draw, max_circles=6, max_size=10, turns=2):
    sets = tick_sets(max_size=max_size, turns=turns)
    comps = tuple(
        Component("circle", N, ticks)
        for ticks, N in draw(st.lists(sets, min_size=1, max_size=max_circles))
    )
    return CircleConfig(2 * len(comps), Fraction(1), comps)


@st.composite
def embeddable_configs(draw, max_points=9):
    """Three or four unit circles of one to three points each, at most
    max_points in all, every tick a 30-degree multiple (possibly shifted by
    whole turns), so embed_config applies."""
    circles = draw(st.integers(3, 4))
    comps = []
    for i in range(circles):
        cap = min(3, max_points - sum(c.size for c in comps) - (circles - 1 - i))
        m = draw(st.integers(1, 2))
        steps = draw(st.sets(st.integers(0, 11), min_size=1, max_size=cap))
        turns = [draw(st.integers(-1, 1)) for _ in steps]
        ticks = tuple(m * (s + 12 * w) for s, w in zip(sorted(steps), turns))
        comps.append(Component("circle", 12 * m, ticks))
    return CircleConfig(2 * circles, Fraction(1), tuple(comps))


# A third-turn triangle, a quarter-turn pair on modulus 24, and one more point.
THIRDS_AND_QUARTER = CircleConfig(
    6,
    Fraction(1),
    (
        Component("circle", 12, (0, 4, 8)),
        Component("circle", 24, (0, 6)),
        Component("circle", 12, (5,)),
    ),
)


@st.composite
def affine_images(draw):
    """(config, s, image): an embeddable configuration and the image of its
    points under x -> s*x + t, with s a nonzero rational of denominator 3,
    5 or 7 and t a point of Q(rt3)^d."""
    config = draw(embeddable_configs())
    q = draw(st.sampled_from([3, 5, 7]))
    p = draw(st.integers(-3 * q, 3 * q).filter(lambda p: p % q))
    s = Fraction(p, q)
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    t = [Quad3(draw(parts), draw(parts)) for _ in range(config.ambient_dim)]
    scale = Quad3.of(s)
    image = PointSet(
        config.ambient_dim,
        tuple(
            tuple(scale * x + y for x, y in zip(pt, t))
            for pt in embed_config(config).points
        ),
    )
    return config, s, image


def reference_coordinate_simplices(P, k, side_sq=None):
    """Reference: every k-subset of P that is a regular simplex, of squared
    side side_sq when it is given, as ascending indices."""
    return [
        sub
        for sub in combinations(range(len(P)), k)
        if is_regular_simplex([P.points[i] for i in sub])
        and (side_sq is None or sq_dist(*(P.points[i] for i in sub[:2])) == side_sq)
    ]


def is_structured_simplex(config, selection):
    """Reference: whether k labeled points (circle, tick) are pairwise
    equidistant.

    Cross-circle distances all equal sqrt(2)*radius, so a mixed selection is
    regular iff every same-circle pair sits at a quarter turn.  A selection
    on a single circle (possible only for k = 3) is regular iff all three
    pairs sit at a third of a turn.  Three points pairwise at 90 degrees on
    one circle cannot exist, so no mixed simplex uses three points of one
    circle.
    """
    if len(set(selection)) != len(selection):
        raise ValueError("selection points must be distinct")
    by_circle = {}
    for ci, t in selection:
        by_circle.setdefault(ci, []).append(t)
    if len(by_circle) == 1:
        (ci, ticks), = by_circle.items()
        if len(ticks) != 3:
            return False
        N = config.components[ci].modulus
        return all(tick_chord_class(N, b - a) == "third" for a, b in combinations(ticks, 2))
    for ci, ticks in by_circle.items():
        if len(ticks) > 2:
            return False
        if len(ticks) == 2:
            N = config.components[ci].modulus
            if tick_chord_class(N, ticks[1] - ticks[0]) != "quarter":
                return False
    return True


def classify(selection):
    """Simplex type of a selection by its largest circle multiplicity."""
    mult = {}
    for ci, _ in selection:
        mult[ci] = mult.get(ci, 0) + 1
    return ("delta1", "delta2", "delta3")[max(mult.values()) - 1]


def reference_simplices(config, k):
    """Reference: every k-subset of the labeled points that the structured
    predicate accepts, as (ascending indices, type)."""
    points = config.labeled_points()
    return [
        (sub, classify([points[i] for i in sub]))
        for sub in combinations(range(len(points)), k)
        if is_structured_simplex(config, [points[i] for i in sub])
    ]


def reference_census(config, k, side_sq=None):
    """Reference census by subset enumeration, honoring the side filter."""
    mixed = side_sq is None or side_sq == 2 * config.radius_sq
    single = side_sq is None or side_sq == 3 * config.radius_sq
    kinds = [kind for _, kind in reference_simplices(config, k)]
    return CountReport(
        kinds.count("delta1") if mixed else 0,
        kinds.count("delta2") if mixed else 0,
        kinds.count("delta3") if single else 0,
    )


def pairwise_pair_graphs(config):
    """Reference: the full rows of census._pair_graphs (compatible, cross,
    thirds), built pair by pair with tick_chord_class."""
    points = config.labeled_points()
    n = len(points)
    compatible, cross, thirds = [0] * n, [0] * n, [0] * n
    for i, (ci, t) in enumerate(points):
        for j, (cj, u) in enumerate(points):
            if j == i:
                continue
            if ci != cj:
                cross[i] |= 1 << j
                compatible[i] |= 1 << j
                continue
            kind = tick_chord_class(config.components[ci].modulus, u - t)
            if kind == "quarter":
                compatible[i] |= 1 << j
            elif kind == "third":
                thirds[i] |= 1 << j
    return compatible, cross, thirds


def plain_clique_count(graph, k, cand=-1):
    """Reference: number of k-cliques (k >= 2) of graph among the points of
    the bitset cand (all points by default), by a unit-weight walk over
    every point that reads only the neighbours above each one."""
    cand &= (1 << len(graph)) - 1
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        ext = cand & graph[low.bit_length() - 1]
        if ext:
            total += ext.bit_count() if k == 2 else plain_clique_count(graph, k - 1, ext)
    return total


def assert_symmetric(graph):
    """A graph of full rows: no point is its own neighbour, and j is in
    row i exactly when i is in row j."""
    for i, row in enumerate(graph):
        assert not row >> i & 1
        for j in range(len(graph)):
            assert graph[j] >> i & 1 == row >> j & 1


@st.composite
def twin_graphs(draw, max_n=14):
    """Full rows of a random graph on at most max_n vertices, with false
    twins planted by giving a vertex the neighbours of another."""
    n = draw(st.integers(0, max_n))
    adjacent = [[False] * n for _ in range(n)]
    for a, b in combinations(range(n), 2):
        adjacent[a][b] = adjacent[b][a] = draw(st.booleans())
    vertex = st.integers(0, max(n - 1, 0))
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=8 if n else 0)):
        if u == v:
            continue
        adjacent[u][v] = adjacent[v][u] = False
        for w in range(n):
            if w not in (u, v):
                adjacent[v][w] = adjacent[w][v] = adjacent[u][w]
    return [sum(1 << j for j in range(n) if adjacent[i][j]) for i in range(n)]


@st.composite
def random_graphs(draw, max_n=14):
    """Full rows of G(n, p): n <= max_n points, each pair adjacent with
    probability p."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rnd = draw(st.randoms(use_true_random=False))
    rows = [0] * n
    for a, b in combinations(range(n), 2):
        if rnd.random() < p:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


@st.composite
def joined_graphs(draw, max_isolated=0):
    """Full rows of the join of 2 to 4 random graphs of at most 5 points,
    with up to max_isolated isolated points added, under a random
    relabelling."""
    parts = draw(st.lists(random_graphs(max_n=5), min_size=2, max_size=4))
    joined = sum(map(len, parts))
    rows = []
    for part in parts:
        start = len(rows)
        others = ((1 << joined) - 1) ^ ((1 << start + len(part)) - (1 << start))
        rows += [others | row << start for row in part]
    rows += [0] * draw(st.integers(0, max_isolated))
    n = len(rows)
    perm = draw(st.permutations(range(n)))
    relabelled = [0] * n
    for i, row in enumerate(rows):
        relabelled[perm[i]] = sum(1 << perm[j] for j in range(n) if row >> j & 1)
    return relabelled


def cycle(n):
    """Full rows of the cycle C_n."""
    return [1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)]


def subset_clique_count(graph, k):
    """Reference: number of k-subsets of the points of graph that are
    cliques."""
    return sum(
        all(graph[a] >> b & 1 for a, b in combinations(sub, 2))
        for sub in combinations(range(len(graph)), k)
    )


def pairwise_join_factors(graph, piece):
    """Reference: the components of the complement of graph on the points
    of the bitset piece, as bitsets in the order of their least points,
    from an adjacency matrix built pair by pair."""
    points = [i for i in range(len(graph)) if piece >> i & 1]
    adjacent = {(a, b): bool(graph[a] >> b & 1) for a in points for b in points}
    component = {v: v for v in points}  # point -> least point of its component
    changed = True
    while changed:
        changed = False
        for a in points:
            for b in points:
                if a != b and not adjacent[a, b] and component[b] > component[a]:
                    component[b] = component[a]
                    changed = True
    factors = {}
    for v in points:
        factors[component[v]] = factors.get(component[v], 0) | 1 << v
    return [factors[least] for least in sorted(factors)]


def scaled_sq_dist(P, i, j):
    """Reference: D^2 * sq_dist(p_i, p_j) as an integer pair, with D the lcm
    of every coordinate denominator of P."""
    coords = [x for pt in P.points for x in pt]
    D = lcm(*(q.denominator for x in coords for q in (x.a, x.b)))
    sq = sq_dist(P.points[i], P.points[j])
    key = (sq.a * D * D, sq.b * D * D)
    assert all(x.denominator == 1 for x in key)
    return tuple(map(int, key))


# False twins, points with equal rows, in classes of sizes 1 to 4.  On the
# first circle 0 and 6 share the quarter partner 3, and 13 (= 1), -17
# (= 7) and 2 have none.  On the second, 0 and 12 share the partners 6 and
# 18, which share 0 and 12, and 1, 2, 4 and 29 (= 5) have none.  The third
# circle is a third-turn triangle with no quarter pair, the fourth a
# single point.
TWIN_CLASSES = CircleConfig(
    8,
    Fraction(1),
    (
        Component("circle", 12, (0, 6, 13, -17, 3, 2)),
        Component("circle", 24, (0, 6, 12, 18, 1, 2, 4, 29)),
        Component("circle", 12, (0, 4, 8)),
        Component("circle", 12, (5,)),
    ),
)


# One circle of modulus 12 * 10**12 holding a quarter pair (0, 3 * 10**12)
# and a third-turn triangle (0, 4 * 10**12, 8 * 10**12), plus two one-point
# circles.  A graph build that follows the modulus, not the points, never
# finishes on it.
HUGE_MODULUS = CircleConfig(
    6,
    Fraction(1),
    (
        Component("circle", 12 * 10**12, (0, 3 * 10**12, 4 * 10**12, 8 * 10**12)),
        Component("circle", 12, (0,)),
        Component("circle", 12, (5,)),
    ),
)


class TestTickChordClass:
    def test_quarter(self):
        assert tick_chord_class(12, 3) == "quarter"
        assert tick_chord_class(12, 9) == "quarter"

    def test_third(self):
        assert tick_chord_class(12, 4) == "third"
        assert tick_chord_class(12, 8) == "third"

    def test_other_and_zero(self):
        assert tick_chord_class(24, 5) == "other"
        assert tick_chord_class(24, 0) == "zero"
        assert tick_chord_class(24, 24) == "zero"

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            tick_chord_class(10, 1)


class TestStructuredSimplexPredicate:
    @pytest.fixture
    def config(self):
        return build_even_config(36, 3, (12, 12, 12))

    def test_good_pair_plus_third_circle(self, config):
        assert is_structured_simplex(config, [(0, 0), (0, 3), (1, 7)])

    def test_inscribed_triangle(self, config):
        assert is_structured_simplex(config, [(0, 0), (0, 4), (0, 8)])

    def test_bad_single_circle_triple(self, config):
        assert not is_structured_simplex(config, [(0, 0), (0, 3), (0, 6)])

    def test_cross_circle_triple(self, config):
        assert is_structured_simplex(config, [(0, 5), (1, 2), (2, 11)])

    def test_non_good_pair(self, config):
        assert not is_structured_simplex(config, [(0, 0), (0, 1), (1, 0)])

    def test_three_on_circle_in_mixed_selection(self, config):
        assert not is_structured_simplex(config, [(0, 0), (0, 3), (0, 6), (1, 0)])

    def test_no_pairwise_quarter_triple_exists(self, config):
        # three points pairwise at 90 degrees cannot exist on one circle
        N = 12
        for t in combinations(range(N), 3):
            pairs = [tick_chord_class(N, b - a) for a, b in combinations(t, 2)]
            assert pairs.count("quarter") < 3

    def test_duplicate_selection_rejected(self, config):
        with pytest.raises(ValueError):
            is_structured_simplex(config, [(0, 0), (0, 0), (1, 1)])


class TestCountBruteForceCoords:
    def test_dodecagon_triangles(self):
        config = build_even_config(12, 3, (12, 0, 0))
        pts = embed_config(config)
        assert count_brute_force(pts, 3) == 4

    def test_single_cross_triangle(self):
        pts = embed_config(build_even_config(3, 3, (1, 1, 1)))
        assert count_brute_force(pts, 3) == 1

    def test_full_even_config(self):
        pts = embed_config(build_even_config(36, 3, (12, 12, 12)))
        assert count_brute_force(pts, 3) == 2604

    def test_side_filter(self):
        pts = embed_config(build_even_config(12, 3, (12, 0, 0)))
        assert count_brute_force(pts, 3, side_sq=Quad3.of(3)) == 4
        assert count_brute_force(pts, 3, side_sq=Quad3.of(2)) == 0


class TestStructuredCounts:
    def test_three_dodecagons(self):
        config = build_even_config(36, 3, (12, 12, 12))
        report = brute_force_structured(config, 3)
        assert (report.delta1, report.delta2, report.delta3) == (1728, 864, 12)
        assert count_structured(config, 3) == report

    def test_trivial(self):
        config = build_even_config(3, 3, (1, 1, 1))
        report = brute_force_structured(config, 3)
        assert (report.delta1, report.delta2, report.delta3) == (1, 0, 0)

    def test_k4(self):
        config = build_even_config(32, 4, (8, 8, 8, 8))
        report = brute_force_structured(config, 4)
        assert report.total == 10624
        assert report.delta3 == 0
        assert count_structured(config, 4) == report

    def test_unbalanced(self):
        config = build_even_config(20, 3, (6, 6, 8))
        report = count_structured(config, 3)
        assert report.total == 524
        assert report == brute_force_structured(config, 3)

    @pytest.mark.parametrize(
        "config,k",
        [
            (build_even_config(15, 3, (4, 5, 6)), 3),
            (build_even_config(26, 3, (13, 13, 0)), 3),
            (build_odd_config(21, 3), 3),
            (build_even_config(20, 4, (5, 5, 5, 5)), 4),
            (build_odd_config(16, 4), 4),
        ],
    )
    def test_structured_equals_brute_force(self, config, k):
        assert count_structured(config, k) == brute_force_structured(config, k)

    def test_arbitrary_ticks_still_agree(self):
        rng = random.Random(7)
        for _ in range(20):
            comps = []
            for _ in range(3):
                N = 12 * rng.randint(1, 3)
                size = rng.randint(0, min(N, 8))
                comps.append(
                    Component("circle", N, tuple(sorted(rng.sample(range(N), size))))
                )
            config = CircleConfig(6, Fraction(1), tuple(comps))
            if config.n < 3:
                continue
            assert count_structured(config, 3) == brute_force_structured(config, 3)

    def test_coords_agree_with_ticks(self):
        for partition in [(6, 6, 8), (4, 4, 4), (12, 12, 12), (3, 5, 12)]:
            config = build_even_config(sum(partition), 3, partition)
            assert (
                count_brute_force(embed_config(config), 3)
                == count_structured(config, 3).total
            )

    def test_side_filter_splits_report(self):
        config = build_even_config(36, 3, (12, 12, 12))
        unit = count_structured(config, 3, side_sq=Fraction(2))
        tri = count_structured(config, 3, side_sq=Fraction(3))
        assert unit.total == 2592 and tri.total == 12
        assert unit == brute_force_structured(config, 3, side_sq=Fraction(2))
        assert tri == brute_force_structured(config, 3, side_sq=Fraction(3))

    @given(tick_configs(), st.integers(3, 6))
    def test_matches_subset_expansion(self, config, k):
        sizes = [c.size for c in config.components]
        gp = [pairwise_good_pairs(c.ticks, c.modulus) for c in config.components]
        d1, d2 = subset_expansion(sizes, gp, k)
        d3 = sum(pairwise_triangles(c.ticks, c.modulus) for c in config.components)
        d3 = d3 if k == 3 else 0
        assert count_structured(config, k).to_json() == CountReport(d1, d2, d3).to_json()
        mixed = count_structured(config, k, side_sq=Fraction(2))
        assert (mixed.delta1, mixed.delta2, mixed.delta3) == (d1, d2, 0)
        single = count_structured(config, k, side_sq=Fraction(3))
        assert (single.delta1, single.delta2, single.delta3) == (0, 0, d3)

    def test_enumeration_order_irrelevant(self):
        # permuting circle order permutes nothing in the totals
        base = build_even_config(15, 3, (4, 5, 6))
        permuted = build_even_config(15, 3, (6, 4, 5))
        assert count_structured(base, 3).total == count_structured(permuted, 3).total


class TestCliqueCount:
    """The clique-count tick oracle against subset enumeration."""

    @given(
        tick_configs(max_circles=4, max_size=4),
        st.integers(3, 5),
        st.sampled_from([None, Fraction(2), Fraction(3)]),
    )
    def test_matches_subset_enumeration(self, config, k, side_sq):
        assert brute_force_structured(config, k, side_sq) == reference_census(
            config, k, side_sq
        )

    @pytest.mark.parametrize(
        "n,r,k", [(7, 3, 3), (21, 3, 3), (13, 4, 3), (16, 4, 4), (15, 5, 5)]
    )
    def test_odd_config_matches_subset_enumeration(self, n, r, k):
        config = build_odd_config(n, r)
        assert brute_force_structured(config, k) == reference_census(config, k)

    @pytest.mark.parametrize(
        "config,k",
        [
            (build_even_config(15, 3, (4, 5, 6)), 3),
            (build_even_config(24, 3, (12, 12, 0)), 3),
            (build_odd_config(14, 3), 3),
            (build_even_config(16, 4, (4, 4, 4, 4)), 4),
            (build_even_config(15, 5, (3, 3, 3, 3, 3)), 5),
        ],
    )
    def test_simplices_and_hypergraph_match_enumeration(self, config, k):
        expected = [sub for sub, _ in reference_simplices(config, k)]
        assert sorted(structured_simplices(config, k)) == expected
        G = build_simplex_hypergraph(config, k)
        assert G.edges == {frozenset(sub) for sub in expected}

    @pytest.mark.parametrize("n,r,k", [(200, 4, 3), (120, 5, 4)])
    def test_large_agrees_with_closed_census(self, n, r, k):
        partition = tuple(n // r + (i < n % r) for i in range(r))
        config = build_even_config(n, r, partition)
        assert brute_force_structured(config, k) == count_structured(config, k)

    def test_independent_of_closed_form(self, monkeypatch):
        def closed_form(*args):
            raise AssertionError("a brute-force oracle used the closed form")

        for module, name in [
            (formulas, "count_polynomial"),
            (census, "count_polynomial"),
            (census, "count_good_pairs"),
            (census, "count_inscribed_triangles"),
            (census, "_tick_set"),
        ]:
            monkeypatch.setattr(module, name, closed_form)
        config = build_even_config(36, 3, (12, 12, 12))
        assert brute_force_structured(config, 3).to_csv_row() == "1728,864,12,2604"
        assert build_simplex_hypergraph(config, 3).e == 2604
        config = build_even_config(32, 4, (8, 8, 8, 8))
        assert brute_force_structured(config, 4).total == 10624
        assert build_simplex_hypergraph(config, 4).e == 10624
        with pytest.raises(AssertionError):
            count_structured(config, 4)

        def tick_classes(*args):
            raise AssertionError("the coordinate oracle used tick classes")

        for name in ("tick_chord_class", "_pair_graphs"):
            monkeypatch.setattr(census, name, tick_classes)
        assert count_brute_force(build_even_config(36, 3, (12, 12, 12)), 3) == 2604
        assert count_brute_force(config, 4) == 10624

    @given(tick_configs())
    @example(HUGE_MODULUS)
    def test_chord_table_matches_pairwise_classes(self, config):
        graphs = census._pair_graphs(config)
        for graph in graphs:
            assert_symmetric(graph)
        assert graphs == pairwise_pair_graphs(config)

    # The lister is the reference for the counting walk, so the bounds keep
    # the listed cliques few (at most 6 points on each of 5 circles).
    @given(tick_configs(max_circles=5, max_size=6), st.integers(3, 6))
    def test_counting_walk_matches_lister(self, config, k):
        points = config.labeled_points()
        kinds = [
            classify([points[i] for i in clique])
            for clique in structured_simplices(config, k)
        ]
        expected = CountReport(*map(kinds.count, ("delta1", "delta2", "delta3")))
        assert brute_force_structured(config, k) == expected

    # Points on different circles are always adjacent in the cross-circle
    # graph, and points on one circle never are.
    @given(tick_configs())
    @example(TWIN_CLASSES)
    def test_cross_circle_factors_are_circles(self, config):
        _, cross, _ = census._pair_graphs(config)
        circles = []
        start = 0
        for comp in config.components:
            if comp.size:
                circles.append((1 << start + comp.size) - (1 << start))
            start += comp.size
        assert census._join_factors(cross, (1 << config.n) - 1) == circles

    def test_twin_example_has_large_classes(self):
        classes = Counter(census._pair_graphs(TWIN_CLASSES)[0])
        assert sorted(classes.values()) == [1, 1, 2, 2, 2, 3, 3, 4]

    # The unit-weight walk over every point is the reference for the
    # join-factor count, on the compatible-pair graph, on the cross-circle
    # graph, whose join factors are its circles, and on the third-turn
    # graph.
    @given(tick_configs(max_circles=5, max_size=6), st.integers(3, 6))
    @example(TWIN_CLASSES, 3)
    @example(TWIN_CLASSES, 5)
    def test_weighted_walk_matches_plain_walk(self, config, k):
        for graph in census._pair_graphs(config):
            assert census._count_cliques(graph, k) == plain_clique_count(graph, k)

    # _join_factors and the count take any graph of full rows, not only the
    # tick graphs: random graphs with planted false twins, G(n, p), joins
    # of G(n, p) graphs with and without isolated points, and cycles,
    # whose complements are connected from C_5 on.
    @settings(max_examples=200)
    @given(
        st.one_of(
            twin_graphs(),
            random_graphs(),
            joined_graphs(),
            joined_graphs(max_isolated=3),
        ),
        st.integers(2, 5),
    )
    def test_weighted_walk_of_any_graph(self, graph, k):
        cliques = subset_clique_count(graph, k)
        assert plain_clique_count(graph, k) == cliques
        assert census._count_cliques(graph, k) == cliques

    @pytest.mark.parametrize("n", range(5, 13))
    def test_count_of_cycles(self, n):
        graph = cycle(n)
        assert census._join_factors(graph, (1 << n) - 1) == [(1 << n) - 1]
        for k in range(2, 7):
            cliques = subset_clique_count(graph, k)
            assert cliques == (n if k == 2 else 0)
            assert plain_clique_count(graph, k) == cliques
            assert census._count_cliques(graph, k) == cliques

    @given(
        st.one_of(twin_graphs(), random_graphs(), joined_graphs(max_isolated=3)),
        st.data(),
    )
    def test_join_factors_match_complement_components(self, graph, data):
        everyone = (1 << len(graph)) - 1
        piece = data.draw(st.integers(0, everyone)) if graph else 0
        for mask in (everyone, piece):
            assert census._join_factors(graph, mask) == pairwise_join_factors(
                graph, mask
            )

    @pytest.mark.parametrize("side_sq", [None, Fraction(2), Fraction(3)])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_twin_example_matches_subset_enumeration(self, k, side_sq):
        assert brute_force_structured(TWIN_CLASSES, k, side_sq) == reference_census(
            TWIN_CLASSES, k, side_sq
        )

    def test_k_below_three_rejected(self):
        config = build_even_config(6, 3, (2, 2, 2))
        with pytest.raises(ValueError):
            brute_force_structured(config, 2)
        with pytest.raises(ValueError):
            structured_simplices(config, 2)


class TestCoordinateCliques:
    """The coordinate oracle's clique walk against subset enumeration."""

    # The reference computes the pair distances of every subset over
    # Fraction arithmetic: slower than the default deadline allows.
    @settings(deadline=None, max_examples=50)
    @given(
        embeddable_configs(),
        st.integers(3, 5),
        st.sampled_from([None, Fraction(2), Fraction(3)]),
    )
    @example(THIRDS_AND_QUARTER, 3, Fraction(3))
    def test_matches_subset_enumeration(self, config, k, side_sq):
        assume(config.n >= k)
        P = embed_config(config)
        q3_side = None if side_sq is None else Quad3.of(side_sq)
        expected = reference_coordinate_simplices(P, k, q3_side)
        assert sorted(coordinate_simplices(P, k, q3_side)) == expected
        assert count_brute_force(P, k, q3_side) == len(expected)
        assert brute_force_structured(config, k, side_sq).total == len(expected)

    # The integer oracle scales every coordinate by D, the lcm of the
    # coordinate denominators, and squared distances and sides by D^2.  An
    # affine image keeps every regular simplex and scales its squared side
    # by s^2, while its denominators (3, 5, 7 from s, up to 6 from t) make
    # D > 1.
    @settings(deadline=None, max_examples=30)
    @given(affine_images(), st.integers(3, 5), st.sampled_from([None, 2, 3, "off"]))
    def test_affine_images(self, case, k, side):
        config, s, image = case
        assume(config.n >= k)
        P = embed_config(config)
        if side == "off":
            coords = [x for pt in image.points for x in pt]
            D = lcm(*(q.denominator for x in coords for q in (x.a, x.b)))
            # D^2 times this side is 1/11, which no squared distance reaches
            image_side, side_sq = Quad3.of(Fraction(1, 11 * D * D)), None
        else:
            side_sq = None if side is None else Quad3.of(side)
            image_side = None if side is None else Quad3.of(s * s * side)
        expected = reference_coordinate_simplices(image, k, image_side)
        assert sorted(coordinate_simplices(image, k, image_side)) == expected
        assert count_brute_force(image, k, image_side) == len(expected)
        if side == "off":
            assert expected == []
        else:
            assert len(expected) == count_brute_force(P, k, side_sq)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_unit_vectors_and_origin(self, k):
        # e_1..e_5 are pairwise at squared distance 2 and each at 1 from the
        # origin, so every regular simplex is a k-subset of the unit vectors
        zero, one = Quad3.of(0), Quad3.of(1)
        units = [tuple(one if j == i else zero for j in range(5)) for i in range(5)]
        P = PointSet(5, (*units, (zero,) * 5))
        expected = list(combinations(range(5), k))
        assert reference_coordinate_simplices(P, k) == expected
        assert sorted(coordinate_simplices(P, k)) == expected
        assert count_brute_force(P, k) == len(expected)
        assert count_brute_force(P, k, side_sq=Quad3.of(2)) == len(expected)
        assert count_brute_force(P, k, side_sq=one) == 0
        assert coordinate_simplices(P, k, side_sq=one) == []
        G = build_simplex_hypergraph(P, k)
        assert G.n == 6 and G.edges == {frozenset(sub) for sub in expected}

    def check_distance_graphs(self, P):
        """Every pair of P lies in exactly one distance graph, keyed by its
        scaled squared distance, in both of its rows; the join-factor count
        gives the cliques of each graph as the unit-weight walk does; and a
        side filter keeps only its key."""
        scaled = census._point_set_rows(P)
        graphs = census._distance_graphs(*scaled, None)
        n = len(P)
        for rows in graphs.values():
            assert_symmetric(rows)
            for k in range(3, 7):
                assert census._count_cliques(rows, k) == plain_clique_count(rows, k)
        for i, j in combinations(range(n), 2):
            in_row_i = [key for key, rows in graphs.items() if rows[i] >> j & 1]
            in_row_j = [key for key, rows in graphs.items() if rows[j] >> i & 1]
            assert in_row_i == in_row_j == [scaled_sq_dist(P, i, j)]
        if n >= 2:
            side = sq_dist(*P.points[:2])
            filtered = census._distance_graphs(*scaled, side)
            key = scaled_sq_dist(P, 0, 1)
            assert filtered == {key: graphs[key]}

    # Affine images have dense coordinates, so their pairs share nonzero
    # ones and take the dot-product path.
    @settings(deadline=None, max_examples=30)
    @given(affine_images())
    def test_distance_graphs_partition_dense_pairs(self, case):
        self.check_distance_graphs(case[2])

    # Points on different circles share no nonzero coordinate, so those
    # pairs join their graph in bulk.
    @settings(deadline=None, max_examples=30)
    @given(embeddable_configs())
    def test_distance_graphs_partition_disjoint_supports(self, config):
        self.check_distance_graphs(embed_config(config))

    # The configuration front end doubles the coordinates of each labeled
    # point from its tick; the point-set front end scales embed_config's
    # Quad3 coordinates by the lcm of their denominators.  No pair of
    # points is at squared distance 1/11.
    @settings(deadline=None, max_examples=50)
    @given(
        embeddable_configs(),
        st.integers(3, 5),
        st.sampled_from([None, 2, 3, Fraction(1, 11)]),
    )
    @example(build_odd_config(9, 3), 3, None)
    @example(build_odd_config(9, 3), 4, 2)
    @example(THIRDS_AND_QUARTER, 3, 3)
    def test_front_ends_agree(self, config, k, side):
        P = embed_config(config)
        side_sq = None if side is None else Quad3.of(side)
        assert count_brute_force(config, k, side_sq) == count_brute_force(P, k, side_sq)
        assert sorted(coordinate_simplices(config, k, side_sq)) == sorted(
            coordinate_simplices(P, k, side_sq)
        )
        unscaled = [
            {
                (Fraction(A, D * D), Fraction(B, D * D)): graph
                for (A, B), graph in census._distance_graphs(D, rows, side_sq).items()
            }
            for D, rows in (embedding(config), census._point_set_rows(P))
        ]
        assert unscaled[0] == unscaled[1]
        _, rows = embedding(config)
        assert len({tuple(sorted(row.items())) for row in rows}) == len(rows) == config.n

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_k_below_three_rejected(self, k):
        P = embed_config(build_even_config(6, 3, (2, 2, 2)))
        with pytest.raises(ValueError, match="need k >= 3"):
            count_brute_force(P, k)
        with pytest.raises(ValueError, match="need k >= 3"):
            coordinate_simplices(P, k)


class TestPerCircleCounts:
    def test_good_pairs_examples(self):
        assert count_good_pairs(tuple(range(12)), 12) == 12
        assert count_good_pairs((0, 1, 3, 4, 6, 9), 12) == 5
        assert count_good_pairs((), 12) == 0

    def test_triangles_examples(self):
        assert count_inscribed_triangles(tuple(range(12)), 12) == 4

    @given(tick_sets())
    def test_match_pairwise_definitions(self, case):
        ticks, N = case
        assert count_good_pairs(ticks, N) == pairwise_good_pairs(ticks, N)
        assert count_inscribed_triangles(ticks, N) == pairwise_triangles(ticks, N)

    def test_out_of_range_ticks_reduce_mod_N(self):
        assert count_good_pairs((-3, 12, 27), 12) == 2  # {9, 0} and {0, 3}
        assert count_inscribed_triangles((-8, 12, 32), 12) == 1  # {4, 0, 8}

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            count_good_pairs((), 10)
        with pytest.raises(ValueError):
            count_inscribed_triangles((), 10)

    @pytest.mark.parametrize("N", [12, 24])
    def test_good_pair_upper_bound_exhaustive_small(self, N):
        # at most n_i pairs at 90 degrees when 4 | n_i, else at most n_i - 1;
        # exhaustive over all tick sets of size <= 6
        for size in range(1, 7):
            for ticks in combinations(range(N), size):
                gp = count_good_pairs(ticks, N)
                bound = size if size % 4 == 0 else size - 1
                assert gp <= bound

    def test_good_pair_upper_bound_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            N = 12 * rng.randint(1, 4)
            size = rng.randint(1, min(16, N))
            ticks = tuple(rng.sample(range(N), size))
            bound = size if size % 4 == 0 else size - 1
            assert count_good_pairs(ticks, N) <= bound


class TestCountReport:
    def test_total_invariant(self):
        r = CountReport(3, 4, 5)
        assert r.total == 12
        assert r.to_json() == {"delta1": 3, "delta2": 4, "delta3": 5, "total": 12}
        assert r.to_csv_row() == "3,4,5,12"
