import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import ceil, floor

import pytest
from hypothesis import given, strategies as st

from regsimplex.census import count_structured
from regsimplex.formulas import (
    _candidates,
    _good_pair_term,
    _triangle_term,
    asymptotic_leading,
    count_polynomial,
    eval_T2r_closed,
    eval_corollary13,
    eval_f_k,
    eval_unit_triangle_formula,
    maximize_f_k,
)
from regsimplex.lenz import build_even_config, theorem12_partition


def elem_sym(values, k):
    """Reference e_k of the values."""
    coeffs = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            coeffs[j] += coeffs[j - 1] * v
    return coeffs[k]


def subset_expansion(sizes, good_pairs, k):
    """Reference mixed count (delta1, delta2) by the J-subset expansion.

    delta1 is e_k of the sizes; delta2 sums, over every nonempty set J of
    circles that each contribute a good pair, the product of their good-pair
    counts times e_{k-2|J|} of the other sizes.  Exponential in r.
    """
    r = len(sizes)
    d2 = 0
    for ell in range(1, k // 2 + 1):
        for J in combinations(range(r), ell):
            prod = 1
            for j in J:
                prod *= good_pairs[j]
            rest = [sizes[i] for i in range(r) if i not in J]
            d2 += prod * elem_sym(rest, k - 2 * ell)
    return elem_sym(sizes, k), d2


def reference_f_k(partition, k):
    """Reference (t1, t2, t3) of f_k, independent of count_polynomial."""
    gp = [n_i - (1 if n_i % 4 else 0) for n_i in partition]
    t1, t2 = subset_expansion(partition, gp, k)
    t3 = 0
    if k == 3:
        for n_i in partition:
            p = n_i % 12
            t3 += (n_i - p) // 3 + (p - 8 if p > 8 else 0)
    return t1, t2, t3


def all_partitions(n, r, lo=0):
    """Reference enumeration: every nondecreasing length-r vector of
    integers >= lo summing to n."""
    if r == 1:
        if n >= lo:
            yield (n,)
        return
    for v in range(lo, n // r + 1):
        for rest in all_partitions(n - v, r - 1, v):
            yield (v,) + rest


def exhaustive_maximum(n, r, k):
    """Reference (value, tie set) of f_k over all partitions of n."""
    values = {vec: eval_f_k(vec, k).value for vec in all_partitions(n, r)}
    best = max(values.values())
    return best, tuple(sorted(vec for vec, v in values.items() if v == best))


def box_vectors(n, r):
    """Reference enumeration of the +-4 box around n/r, which holds every
    vector of spread <= 4: every nondecreasing length-r vector summing to n
    with each entry within 4 of n/r, in lexicographic order."""
    base = Fraction(n, r)
    values = range(max(0, ceil(base - 4)), floor(base + 4) + 1)
    return [vec for vec in combinations_with_replacement(values, r) if sum(vec) == n]


def maximum_over(vectors, k):
    """Reference (value, argmax in enumeration order) of f_k over vectors."""
    values = [(vec, eval_f_k(vec, k).value) for vec in vectors]
    best = max(v for _, v in values)
    return best, tuple(vec for vec, v in values if v == best)


def box_maximum(n, r, k):
    """Reference (value, argmax in enumeration order) of f_k over the box."""
    return maximum_over(box_vectors(n, r), k)


def box_sample():
    """Seeded (n, r, k) cases for r = 3..10, k = 3..min(r, 6), n <= 200,
    with the smallest n of each (r, k) included."""
    rng = random.Random(13)
    return [
        (n, r, k)
        for r in range(3, 11)
        for k in range(3, min(r, 6) + 1)
        for n in (k, rng.randint(k, 40), rng.randint(41, 200))
    ]


def least_entry_vectors(n, r):
    """Reference enumeration of the vectors of spread <= 4 summing to n, in
    lexicographic order: for each least entry a, the other r - 1 entries
    from [a, a + 4].  That is C(r + 3, 4) tuples per a, not C(r + 8, 8)."""
    base = Fraction(n, r)
    return [
        (a, *rest)
        for a in range(max(0, ceil(base) - 4), floor(base) + 1)
        for rest in combinations_with_replacement(range(a, a + 5), r - 1)
        if a + sum(rest) == n
    ]


def wide_sample():
    """Seeded (n, r, k) cases, one for each r = 11..30, with k = 3 + r mod 4
    and n <= 300."""
    rng = random.Random(18)
    return [(rng.randint(3 + r % 4, 300), r, 3 + r % 4) for r in range(11, 31)]


def counts_vector(counts):
    """The nondecreasing vector with counts (a, m_0, ..., m_4)."""
    a, *ms = counts
    return sum(((a + j,) * m for j, m in enumerate(ms)), ())


def per_candidate_maximum(n, r, k):
    """Reference (value, argmax) of the maximizer that calls eval_f_k once
    per candidate: the vectors of spread <= 4 by their counts, walked in
    lexicographic order."""
    best, argmax = -1, []
    for a in range(max(0, -(-n // r) - 4), n // r + 1):
        x = n - r * a
        for m0 in range(r, 0, -1):
            t = r - m0
            for m1 in range(min(t, (4 * t - x) // 3), max(0, 2 * t - x) - 1, -1):
                s, e = t - m1, x - m1
                for m2 in range(min(s, (4 * s - e) // 2), max(0, 3 * s - e) - 1, -1):
                    m4 = e - 3 * s + m2
                    vec = counts_vector((a, m0, m1, m2, s - m2 - m4, m4))
                    value = eval_f_k(vec, k).value
                    if value > best:
                        best, argmax = value, [vec]
                    elif value == best:
                        argmax.append(vec)
    return best, tuple(argmax)


def per_candidate_sample():
    """Seeded (n, r, k) cases for r = 3..12, k = 3..min(r, 8), n <= 300:
    per (r, k) one n below r where n >= k allows it, one up to 60 and one
    above."""
    rng = random.Random(24)
    return [
        (n, r, k)
        for r in range(3, 13)
        for k in range(3, min(r, 8) + 1)
        for n in (rng.randint(k, max(k, r - 1)), rng.randint(r, 60), rng.randint(61, 300))
    ]


@st.composite
def partitions_and_k(draw):
    r = draw(st.integers(3, 10))
    k = draw(st.integers(3, min(r, 8)))
    return tuple(draw(st.lists(st.integers(0, 40), min_size=r, max_size=r))), k


class TestCountPolynomial:
    def test_examples(self):
        # (1 + 2x)(1 + 3x) = 1 + 5x + 6x^2; adding g x^2 terms 4 and 5
        assert count_polynomial((2, 3), (4, 5), 2) == (6, 15)
        assert count_polynomial((2, 3), (4, 5), 4) == (0, 20)
        assert count_polynomial((), (), 0) == (1, 1)
        assert count_polynomial((2, 3), (4, 5), 0) == (1, 1)
        assert count_polynomial((2, 3), (4, 5), 1) == (5, 5)
        # each factor has degree <= 2, so every k > 2r counts 0
        assert count_polynomial((2, 3), (4, 5), 5) == (0, 0)
        assert count_polynomial((36,) * 3, (6,) * 3, 10**12) == (0, 0)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            count_polynomial((1, 2, 3), (0, 0), 2)

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=10),
        st.integers(0, 8),
    )
    def test_matches_subset_expansion(self, classes, k):
        sizes = [s for s, _ in classes]
        gp = [g for _, g in classes]
        d1, d2 = subset_expansion(sizes, gp, k)
        assert count_polynomial(sizes, gp, k) == (d1, d1 + d2)


class TestEvalFk:
    def test_examples(self):
        assert eval_f_k((6, 6, 8), 3).value == 524
        assert eval_f_k((6, 6, 8), 3).terms == (288, 236, 0)
        assert eval_f_k((12, 12, 12), 3).value == 2604
        assert eval_f_k((8, 8, 8, 8), 4).value == 10624

    def test_no_triangle_term_for_k4(self):
        res = eval_f_k((12, 12, 12, 12), 4)
        assert res.terms[2] == 0

    def test_r_less_than_k_rejected(self):
        with pytest.raises(ValueError):
            eval_f_k((5, 5, 5), 4)

    @given(partitions_and_k())
    def test_terms_match_subset_expansion(self, case):
        partition, k = case
        res = eval_f_k(partition, k)
        assert res.terms == reference_f_k(partition, k)
        assert res.value == sum(res.terms)

    @pytest.mark.parametrize(
        "partition,k",
        [
            ((6, 6, 8), 3),
            ((12, 12, 12), 3),
            ((7, 8, 8), 3),
            ((0, 2, 5), 3),
            ((8, 8, 8, 8), 4),
            ((5, 6, 7, 8), 4),
            ((3, 3, 3, 3, 3), 5),
        ],
    )
    def test_construction_realizes_formula(self, partition, k):
        config = build_even_config(sum(partition), len(partition), partition)
        assert eval_f_k(partition, k).value == count_structured(config, k).total


class TestT2rClosed:
    def test_examples(self):
        assert eval_T2r_closed(20, 3).value == 524
        assert eval_T2r_closed(36, 3).value == 2604
        assert eval_T2r_closed(23, 3).value == 784

    def test_t23_term_arithmetic(self):
        # (7,8,8): 448 + (6*16 + 8*15 + 8*15) = 784
        res = eval_f_k((7, 8, 8), 3)
        assert res.terms == (448, 336, 0)


class TestCorollary13:
    def test_values(self):
        assert eval_corollary13(36, 3).value == 2604
        assert eval_corollary13(48, 4).value == 8656
        assert eval_corollary13(72, 3).value == 17304

    def test_matches_partition_route(self):
        for n, r in [(36, 3), (72, 3), (48, 4), (108, 3), (96, 4)]:
            assert eval_corollary13(n, r).value == eval_T2r_closed(n, r).value

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            eval_corollary13(37, 3)

    @pytest.mark.parametrize("n", [-36, 0, 2])
    def test_needs_n_at_least_r(self, n):
        with pytest.raises(ValueError, match="need n >= r"):
            eval_corollary13(n, 3)


class TestMaximize:
    def test_small_cases(self):
        res = maximize_f_k(20, 3, 3)
        assert res.value == 524 and (6, 6, 8) in res.argmax
        res = maximize_f_k(36, 3, 3)
        assert res.value == 2604 and res.argmax == ((12, 12, 12),)

    @pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
    def test_matches_exhaustive_search(self, r):
        for k in range(3, r + 1):
            for n in range(k, 25):
                res = maximize_f_k(n, r, k)
                assert (res.value, res.argmax) == exhaustive_maximum(n, r, k), (n, r, k)

    def test_enumerates_spread_at_most_4_of_box(self):
        # _candidates is the walk that maximize_f_k consumes: the counts
        # (a, m_0, ..., m_4) of each candidate, with its f_k.
        for n, r, _ in box_sample():
            expected = [v for v in box_vectors(n, r) if max(v) - min(v) <= 4]
            for k in range(3, r + 1):
                seen = []
                for counts, value in _candidates(n, r, k):
                    vec = counts_vector(counts)
                    assert value == eval_f_k(vec, k).value, (vec, k)
                    seen.append(vec)
                assert sorted(seen) == expected, (n, r, k)

    def test_matches_box_reference(self):
        for n, r, k in box_sample():
            res = maximize_f_k(n, r, k)
            assert (res.value, res.argmax) == box_maximum(n, r, k), (n, r, k)

    def test_needs_n_at_least_k(self):
        with pytest.raises(ValueError, match="need n >= k"):
            maximize_f_k(3, 4, 4)
        assert maximize_f_k(4, 4, 4).value == 1

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_closed_form_is_max(self, r):
        for n in range(r, 61):
            res = maximize_f_k(n, r, 3)
            assert res.value == eval_T2r_closed(n, r).value
            assert tuple(sorted(theorem12_partition(n, r))) in res.argmax

    def test_gap_shift_increases_value(self):
        # moving two units from a much larger class to a smaller one helps
        rng = random.Random(3)
        for _ in range(50):
            r = rng.choice([3, 4, 5])
            base = rng.randint(20, 60)
            rest = [rng.randint(base - 1, base + 1) for _ in range(r - 2)]
            n1 = base + rng.randint(3, 8)
            n2 = base
            before = eval_f_k((n1, n2, *rest), 3).value
            after = eval_f_k((n1 - 2, n2 + 2, *rest), 3).value
            assert after > before


class TestMaximizePerCandidate:
    """maximize_f_k against the per-candidate eval_f_k maximizer it replaced."""

    def test_matches_on_seeded_sample(self):
        cases = per_candidate_sample()
        assert any(n < r for n, r, _ in cases)
        for n, r, k in cases:
            res = maximize_f_k(n, r, k)
            assert (res.value, res.argmax) == per_candidate_maximum(n, r, k), (n, r, k)

    @pytest.mark.parametrize("n,r,k", [(120, 8, 6), (300, 12, 6)])
    def test_matches_at_ci_cases(self, n, r, k):
        res = maximize_f_k(n, r, k)
        assert (res.value, res.argmax) == per_candidate_maximum(n, r, k)

    def test_paper_scale_value(self):
        # per_candidate_maximum gives the same, about 35 times slower.
        res = maximize_f_k(600, 100, 6)
        assert res.value == 58076907249900
        assert res.argmax == ((6,) * 100,)


class TestMaximizeWide:
    """maximize_f_k past the r <= 10 that the +-4 box reference reaches."""

    def test_matches_least_entry_reference(self):
        for n, r, k in wide_sample():
            res = maximize_f_k(n, r, k)
            expected = maximum_over(least_entry_vectors(n, r), k)
            assert (res.value, res.argmax) == expected, (n, r, k)


def pair_coefficients(a, b):
    """Degrees 1..4 of (1 + a x + g_a x^2)(1 + b x + g_b x^2), then the
    pair's triangle terms."""
    ga, gb = _good_pair_term(a), _good_pair_term(b)
    return (a + b, a * b + ga + gb, a * gb + b * ga, ga * gb,
            _triangle_term(a) + _triangle_term(b))


def move_deltas(a, D):
    """Change of pair_coefficients when 4 points move from b = a + D to a."""
    before = pair_coefficients(a, a + D)
    after = pair_coefficients(a + 4, a + D - 4)
    return tuple(y - x for x, y in zip(before, after))


@st.composite
def spread_vectors(draw):
    """(vector with spread >= 5 sorted ascending, k)."""
    r = draw(st.integers(3, 7))
    k = draw(st.integers(3, r))
    vec = sorted(draw(st.lists(st.integers(0, 30), min_size=r, max_size=r)))
    vec[-1] = max(vec[-1], vec[0] + 5 + draw(st.integers(0, 20)))
    return tuple(vec), k


class TestExchangeLemma:
    """The exchange lemma behind maximize_f_k's spread bound."""

    def test_residue_cases(self):
        for a in range(12):
            for D in range(5, 17):
                d1, d2, d3, d4, dt = move_deltas(a, D)
                assert d1 == 0 and d2 >= 4 and d3 >= 4 and d4 >= 0, (a, D)
                assert d3 + dt >= 3, (a, D)

    def test_residue_cases_stand_for_all(self):
        # At fixed residues mod 12 the deltas do not depend on a and grow
        # linearly in D (degree 2 and 4 by 48, degree 3 by 96 per 12), so the
        # cases a < 12, 5 <= D < 17 decide every a >= 0, D >= 5.
        for a in range(60):
            for D in range(5, 60):
                steps, rem = divmod(D - 5, 12)
                d1, d2, d3, d4, dt = move_deltas(a % 12, 5 + rem)
                expected = (d1, d2 + 48 * steps, d3 + 96 * steps, d4 + 48 * steps, dt)
                assert move_deltas(a, D) == expected, (a, D)

    @given(spread_vectors())
    def test_move_raises_f_k_unless_zero(self, vec_k):
        vec, k = vec_k
        moved = (vec[0] + 4,) + vec[1:-1] + (vec[-1] - 4,)
        before = eval_f_k(vec, k).value
        assert eval_f_k(moved, k).value > before or (before == 0 and vec[0] == 0)


class TestUnitTriangle:
    def test_examples(self):
        assert eval_unit_triangle_formula((12, 12, 12)).value == 2592
        assert eval_unit_triangle_formula((6, 6, 8)).value == 524
        assert eval_unit_triangle_formula((1, 1, 1)).value == 1

    def test_census_with_side_filter_agrees(self):
        config = build_even_config(36, 3, (12, 12, 12))
        filtered = count_structured(config, 3, side_sq=Fraction(2))
        assert filtered.total == eval_unit_triangle_formula((12, 12, 12)).value


class TestAsymptoticLeading:
    def test_values(self):
        assert asymptotic_leading(36, 3, 3) == 1728
        assert asymptotic_leading(32, 4, 4) == 4096
        assert asymptotic_leading(5, 5, 5) == 1

    def test_exact_rational(self):
        assert asymptotic_leading(10, 3, 3) == Fraction(1000, 27)

    @pytest.mark.parametrize("n", [-10, 0, 2])
    def test_needs_n_at_least_r(self, n):
        with pytest.raises(ValueError, match="need n >= r"):
            asymptotic_leading(n, 3, 3)
