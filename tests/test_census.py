import multiprocessing
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from regsimplex.census import (
    CountReport,
    brute_force_structured,
    count_brute_force,
    count_good_pairs,
    count_inscribed_triangles,
    count_structured,
    is_structured_simplex,
    tick_chord_class,
)
from regsimplex.exactnum import Quad3
from regsimplex.lenz import (
    CircleConfig,
    Component,
    build_even_config,
    build_odd_config,
    embed_config,
)
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
def tick_sets(draw, max_size=16):
    """(ticks, N): distinct residues, each shifted by a multiple of N."""
    N = 12 * draw(st.integers(1, 4))
    residues = draw(st.sets(st.integers(0, N - 1), max_size=min(N, max_size)))
    return tuple(t + N * draw(st.integers(-2, 2)) for t in sorted(residues)), N


@st.composite
def tick_configs(draw):
    comps = tuple(
        Component("circle", N, ticks)
        for ticks, N in draw(st.lists(tick_sets(max_size=10), min_size=1, max_size=6))
    )
    return CircleConfig(2 * len(comps), Fraction(1), comps)


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

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # A serial stand-in for the pool records the requested process
        # count, so no large worker count ever starts a process.
        requested = []

        class SerialPool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        config = build_even_config(20, 3, (6, 6, 8))
        serial = brute_force_structured(config, 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for workers in (2, 3, 4, 10**6):
            assert brute_force_structured(config, 3, workers=workers) == serial
        assert requested == [2, 3, 3, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert brute_force_structured(config, 3, workers=10**6) == serial
        assert requested == [2, 3, 3, 3]

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

    def test_parallel_reduction_deterministic(self):
        config = build_even_config(24, 3, (8, 8, 8))
        serial = brute_force_structured(config, 3, workers=1)
        for workers in (2, 3, 5):
            assert brute_force_structured(config, 3, workers=workers) == serial

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
