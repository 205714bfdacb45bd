"""Acceptance gate: one test per criterion, exact equalities throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations


from regsimplex.census import (
    brute_force_structured,
    count_brute_force,
    count_structured,
)
from regsimplex.cli import run_verify
from regsimplex.formulas import (
    asymptotic_leading,
    eval_T2r_closed,
    eval_corollary13,
    eval_f_k,
    eval_unit_triangle_formula,
    maximize_f_k,
)
from regsimplex.geometry import (
    PointSet,
    arrow_relation,
    circumcenter,
    spans_orthogonal,
)
from regsimplex.exactnum import Quad3
from regsimplex.hypergraph import (
    Hypergraph,
    blowup,
    build_simplex_hypergraph,
    contains_copy,
    make_pattern_H,
)
from regsimplex.lenz import (
    build_even_config,
    build_odd_config,
    embed_config,
    place_on_circle,
    theorem12_partition,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_three_way_census_equality():
    with criterion(1, "three-way census equality (k=3, d=6)"):
        for n in range(3, 49):
            partition = theorem12_partition(n, 3)
            config = build_even_config(n, 3, partition)
            closed = count_structured(config, 3)
            brute = brute_force_structured(config, 3)
            assert closed == brute, (n, closed, brute)
            assert closed.total == eval_f_k(partition, 3).value, n


def test_criterion_02_compact_closed_form():
    with criterion(2, "compact closed form at 12r divisibility"):
        for n, r in [(36, 3), (72, 3), (48, 4)]:
            partition = theorem12_partition(n, r)
            config = build_even_config(n, r, partition)
            census = brute_force_structured(config, 3).total
            assert eval_corollary13(n, r).value == eval_T2r_closed(n, r).value == census
        assert eval_corollary13(36, 3).value == 2604


def _has_gap_parity_structure(vec: tuple[int, ...]) -> bool:
    gap_ok = max(vec) - min(vec) <= 2
    gap2_even = all(
        not (abs(a - b) == 2 and (a % 2 or b % 2)) for a, b in combinations(vec, 2)
    )
    one_odd = sum(v % 2 for v in vec) <= 1
    return gap_ok and gap2_even and one_odd


def test_criterion_03_maximizer_structure():
    # The paper fixes S^3_d(n) exactly only for "sufficiently large n"
    # (PAPER.md) and the abstract gives no threshold.  The threshold
    # n >= 4r - 1 is measured: with the exact maximize_f_k the last tied
    # maximizer breaking the gap/parity structure falls at n = 4r - 2 for
    # r = 3..7 (checked to n = 240).  Below the threshold each maximizer
    # must instead be a genuine tie: both brute-force oracles, on ticks and
    # on exact coordinates, must count exactly the maximum value for it.
    with criterion(
        3, "case-analysis partition maximizes; tie-set structure (n >= 4r-1)"
    ):
        violations = []
        false_ties = []
        for r in (3, 4, 5):
            n_structure = 4 * r - 1
            for n in range(r, 61):
                res = maximize_f_k(n, r, 3)
                expected = tuple(sorted(theorem12_partition(n, r)))
                assert expected in res.argmax, (n, r, res.argmax)
                for vec in res.argmax:
                    if n >= n_structure:
                        if not _has_gap_parity_structure(vec):
                            violations.append((n, r, vec))
                        continue
                    config = build_even_config(n, r, vec)
                    ticks = brute_force_structured(config, 3).total
                    coords = count_brute_force(embed_config(config), 3)
                    if not ticks == coords == res.value:
                        false_ties.append((n, r, vec, res.value, ticks, coords))
        assert not violations, (
            "maximizers with n >= 4r-1 violating the gap/parity structure, "
            f"as (n, r, vector): {violations}"
        )
        assert not false_ties, (
            "small-n maximizers whose oracle counts differ from the maximum, "
            f"as (n, r, vector, value, ticks, coords): {false_ties}"
        )


def test_criterion_04_k4_case():
    with criterion(4, "k=4 census in d=8"):
        config = build_even_config(32, 4, (8, 8, 8, 8))
        report = brute_force_structured(config, 4)
        assert report.total == 10624
        assert report.delta3 == 0
        assert eval_f_k((8, 8, 8, 8), 4).value == 10624
        assert count_structured(config, 4) == report


def test_criterion_05_per_circle_formulas():
    from regsimplex.census import count_good_pairs, count_inscribed_triangles

    with criterion(5, "per-circle good pairs and inscribed triangles"):
        for n_i in range(0, 49):
            N, ticks = place_on_circle(n_i)
            p_i = n_i % 12
            expected_gp = n_i - (1 if n_i % 4 else 0)
            expected_tri = (n_i - p_i) // 3 + (p_i - 8 if p_i > 8 else 0)
            assert count_good_pairs(ticks, N) == expected_gp, n_i
            assert count_inscribed_triangles(ticks, N) == expected_tri, n_i


def test_criterion_06_geometry_lemma_suite():
    with criterion(6, "equidistance lemmas on embedded configurations"):
        for partition in [(12, 12, 12), (6, 6, 8), (3, 4, 5), (4, 8, 12)]:
            config = build_even_config(sum(partition), 3, partition)
            pts = embed_config(config)
            groups = []
            start = 0
            for comp in config.components:
                groups.append(
                    PointSet(config.ambient_dim, pts.points[start : start + comp.size])
                )
                start += comp.size
            origin = (Quad3.of(0),) * config.ambient_dim
            for i in range(3):
                for j in range(i + 1, 3):
                    assert arrow_relation(groups[i], groups[j])
                    assert arrow_relation(groups[j], groups[i])
                    assert spans_orthogonal(groups[i], groups[j])
            for g in groups:
                if len(g) >= 3:
                    assert circumcenter(g) == origin
            assert count_brute_force(pts, 3) == count_structured(config, 3).total


def test_criterion_07_odd_dimension_lower_bound():
    with criterion(7, "odd-dimension census meets the leading term"):
        for n in range(3, 46):
            config = build_odd_config(n, 3)
            closed = count_structured(config, 3)
            brute = brute_force_structured(config, 3)
            assert closed == brute, n
            assert closed.total >= asymptotic_leading(n, 3, 3) - 3 * n * n, n


def _naive_contains(G: Hypergraph, H: Hypergraph) -> bool:
    if H.n > G.n:
        return False
    for image in permutations(range(G.n), H.n):
        if all(frozenset(image[v] for v in e) in G.edges for e in H.edges):
            return True
    return False


def test_criterion_08_hypergraph_suite():
    with criterion(8, "pattern/blowup identities and containment checker"):
        assert (make_pattern_H(3, 3).n, make_pattern_H(3, 3).e) == (10, 6)
        assert (make_pattern_H(4, 3).n, make_pattern_H(4, 3).e) == (15, 10)
        assert (make_pattern_H(3, 4).n, make_pattern_H(3, 4).e) == (16, 6)
        rng = random.Random(17)
        for _ in range(10):
            nv = rng.randint(3, 6)
            pool = list(combinations(range(nv), 3))
            edges = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            H = Hypergraph(nv, 3, frozenset(frozenset(e) for e in edges))
            t = rng.randint(1, 3)
            B = blowup(H, t)
            assert B.n == t * H.n and B.e == t ** 3 * H.e
        # oracle agreement at v(H) <= 6, v(G) <= 10
        for _ in range(40):
            gv = rng.randint(4, 10)
            hv = rng.randint(3, 6)
            g_pool = list(combinations(range(gv), 3))
            h_pool = list(combinations(range(hv), 3))
            G = Hypergraph(
                gv,
                3,
                frozenset(
                    frozenset(e)
                    for e in rng.sample(g_pool, rng.randint(1, min(12, len(g_pool))))
                ),
            )
            H = Hypergraph(
                hv,
                3,
                frozenset(
                    frozenset(e)
                    for e in rng.sample(h_pool, rng.randint(1, min(4, len(h_pool))))
                ),
            )
            assert contains_copy(G, H) == _naive_contains(G, H)
        # planted copies are always detected
        H = make_pattern_H(3, 3)
        for _ in range(100):
            n = H.n + rng.randint(0, 6)
            relabel = list(range(n))
            rng.shuffle(relabel)
            edges = {frozenset(relabel[v] for v in e) for e in H.edges}
            for _ in range(rng.randint(0, 10)):
                edges.add(frozenset(rng.sample(range(n), 3)))
            assert contains_copy(Hypergraph(n, 3, frozenset(edges)), H)
        # simplex hypergraph edge counts match the census
        for config, k in [
            (build_even_config(20, 3, (6, 6, 8)), 3),
            (build_even_config(36, 3, (12, 12, 12)), 3),
            (build_odd_config(15, 3), 3),
            (build_even_config(16, 4, (4, 4, 4, 4)), 4),
        ]:
            assert build_simplex_hypergraph(config, k).e == count_structured(config, k).total


def test_criterion_09_unit_side_variant():
    with criterion(9, "unit-side triangle count via side filter"):
        config = build_even_config(36, 3, (12, 12, 12))
        formula = eval_unit_triangle_formula((12, 12, 12)).value
        assert formula == 2592
        assert count_structured(config, 3, side_sq=Fraction(2)).total == formula
        assert brute_force_structured(config, 3, side_sq=Fraction(2)).total == formula
        pts = embed_config(config)
        assert count_brute_force(pts, 3, side_sq=Quad3.of(2)) == formula


def test_criterion_10_parallel_determinism():
    with criterion(10, "verify reports are byte-identical across worker counts"):
        ok1, rep1 = run_verify(range(3, 25), 3, 3, workers=1)
        ok8, rep8 = run_verify(range(3, 25), 3, 3, workers=8)
        assert ok1 and ok8
        assert rep1.encode("utf-8") == rep8.encode("utf-8")
