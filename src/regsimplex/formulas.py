"""Closed-form counting functions and their maximization.

The partition-indexed count realized by the orthogonal-circle construction,
its exact maximum over all partitions, the compact value at nice
divisibility, the unit-side variant, and the asymptotic leading term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .lenz import theorem12_partition


class FormulaResult(NamedTuple):
    value: int
    argmax: Optional[tuple[tuple[int, ...], ...]] = None
    terms: Optional[tuple[int, int, int]] = None


def _good_pair_term(n_i: int) -> int:
    return n_i - (1 if n_i % 4 else 0)


def _triangle_term(n_i: int) -> int:
    p_i = n_i % 12
    return (n_i - p_i) // 3 + (p_i - 8 if p_i > 8 else 0)


def _times(p: list[int], s: int, g: int) -> list[int]:
    """p * (1 + s x + g x^2), truncated to the length of p."""
    return [p[0], p[1] + s * p[0],
            *[p[i] + s * p[i - 1] + g * p[i - 2] for i in range(2, len(p))]]


def count_polynomial(
    sizes: Sequence[int], good_pairs: Sequence[int], k: int
) -> tuple[int, int]:
    """The k-th coefficients (e_k, c_k) of prod_i (1 + s_i x) and
    prod_i (1 + s_i x + g_i x^2), in one O(r*k) pass.

    With s_i the class sizes and g_i their same-circle good-pair counts,
    e_k counts the mixed simplices with all vertices on distinct circles and
    c_k all mixed simplices: each circle contributes no vertex, one of its
    s_i points, or one of its g_i good pairs.  Both products have degree at
    most 2r, so a larger k counts 0 without building them.
    """
    if k > 2 * len(sizes):
        return 0, 0
    e = c = [1] + [0] * max(k, 1)  # _times reads p[1]
    for s, g in zip(sizes, good_pairs, strict=True):
        e = _times(e, s, 0)
        c = _times(c, s, g)
    return e[k], c[k]


def eval_f_k(partition: tuple[int, ...], k: int) -> FormulaResult:
    """The three-summand count: distinct-circle products, good-pair terms,
    and (k = 3 only) per-circle triangle terms."""
    r = len(partition)
    if k < 3:
        raise ValueError("need k >= 3")
    if r < k:
        raise ValueError("need r >= k")
    if any(n_i < 0 for n_i in partition):
        raise ValueError("partition entries must be nonnegative")
    t1, mixed = count_polynomial(
        partition, [_good_pair_term(n_i) for n_i in partition], k
    )
    t3 = sum(_triangle_term(n_i) for n_i in partition) if k == 3 else 0
    return FormulaResult(value=mixed + t3, terms=(t1, mixed - t1, t3))


def eval_T2r_closed(n: int, r: int) -> FormulaResult:
    """Triangle count at the case-selected partition."""
    partition = theorem12_partition(n, r)
    res = eval_f_k(partition, 3)
    return FormulaResult(value=res.value, argmax=(tuple(sorted(partition)),), terms=res.terms)


def eval_corollary13(n: int, r: int) -> FormulaResult:
    """Compact value C(r,3)(n/r)^3 + (r-1)n^2/r + n/3, requiring 12r | n."""
    if r < 3:
        raise ValueError("need r >= 3")
    if n < r:
        raise ValueError("need n >= r")
    if n % (12 * r) != 0:
        raise ValueError("n must be divisible by 12r")
    m = n // r
    t1 = comb(r, 3) * m ** 3
    t2 = (r - 1) * n * n // r
    t3 = n // 3
    return FormulaResult(value=t1 + t2 + t3, terms=(t1, t2, t3))


def eval_unit_triangle_formula(partition: tuple[int, ...]) -> FormulaResult:
    """Triangles of the cross-circle side only: f_3 minus the triangle term."""
    res = eval_f_k(partition, 3)
    t1, t2, _ = res.terms
    return FormulaResult(value=t1 + t2, terms=(t1, t2, 0))


def asymptotic_leading(n: int, r: int, k: int) -> Fraction:
    """Exact rational leading term C(r,k)(n/r)^k."""
    if not r >= k >= 3:
        raise ValueError("need r >= k >= 3")
    if n < r:
        raise ValueError("need n >= r")
    return comb(r, k) * Fraction(n, r) ** k


def _candidates(n: int, r: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every nondecreasing length-r vector of spread <= 4 summing to n, as
    its counts (a, m_0, ..., m_4) with m_0 >= 1, paired with its f_k.

    The vector's f_k is [x^k] of prod_j F_j^(m_j), F_j = 1 + s_j x + g_j x^2
    with s_j = a + j and g_j its good-pair term, plus sum_j m_j t_j at k = 3
    with t_j its triangle term.  The running product F_0^m_0 F_1^m_1 F_2^m_2
    gains one factor per step of the loops over m_0, m_1 and m_2, and
    [x^k] is its dot product with F_3^m_3 F_4^m_4, from a table per a.
    """
    unit = [1] + [0] * k
    for a in range(max(0, -(-(n + 4) // r) - 4), n // r + 1):
        x = n - r * a
        s0, s1, s2, s3, s4 = range(a, a + 5)
        g0, g1, g2, g3, g4 = map(_good_pair_term, range(a, a + 5))
        t0, t1, t2, t3, t4 = map(_triangle_term, range(a, a + 5)) if k == 3 else (0,) * 5
        tails = [[unit]]  # tails[m3][m4] = F_3^m3 F_4^m4, filled on first use
        p0 = unit
        # The t = r - m0 entries above a add 1 to 4 each to a, x in all, so
        # x/4 <= t <= x; the s entries past a + 1 add 2 to 4, e in all.  The
        # ranges of m1 and m2 hold exactly the counts that leave such a sum
        # possible.
        for m0 in range(1, r - (x + 3) // 4 + 1):
            p0 = _times(p0, s0, g0)
            t = r - m0
            if t > x:
                continue
            lo1, p1 = max(0, 2 * t - x), p0
            for _ in range(lo1):
                p1 = _times(p1, s1, g1)
            for m1 in range(lo1, min(t, (4 * t - x) // 3) + 1):
                if m1 > lo1:
                    p1 = _times(p1, s1, g1)
                s, e = t - m1, x - m1
                lo2, p2 = max(0, 3 * s - e), p1
                for _ in range(lo2):
                    p2 = _times(p2, s2, g2)
                for m2 in range(lo2, min(s, (4 * s - e) // 2) + 1):
                    if m2 > lo2:
                        p2 = _times(p2, s2, g2)
                    m4 = e - 3 * s + m2
                    m3 = s - m2 - m4
                    while len(tails) <= m3:
                        tails.append([_times(tails[-1][0], s3, g3)])
                    row = tails[m3]
                    while len(row) <= m4:
                        row.append(_times(row[-1], s4, g4))
                    value = sum(map(mul, p2, reversed(row[m4])))
                    value += m0 * t0 + m1 * t1 + m2 * t2 + m3 * t3 + m4 * t4
                    yield (a, m0, m1, m2, m3, m4), value


def maximize_f_k(n: int, r: int, k: int) -> FormulaResult:
    """The maximum of f_k over all partitions of n into r classes, with the
    full tie set as nondecreasing vectors in lexicographic order.

    Every maximizer has spread max - min <= 4, so only the vectors of spread
    <= 4 are enumerated.  The least entry a is at most n/r, and the other
    r - 1 entries are at most a + 4, so n <= r a + 4(r - 1) and a runs
    from max(0, ceil((n + 4)/r) - 4) to floor(n/r).  Such a vector is fixed
    by the counts m_0, ..., m_4 of the values a, ..., a + 4, with m_0 >= 1;
    the sum fixes m_3 and m_4 once m_0, m_1 and m_2 are chosen.
    `_candidates` evaluates each one from running products of the five
    per-value factors, with a few O(k) factor multiplications and one dot
    product, not a fresh O(r k) evaluation.  Only the tied candidates
    become vectors; sorting them puts the tie set in lexicographic order.

    Exchange lemma.  Let v have spread D = b - a >= 5, where a = min(v) and
    b = max(v), and let v' move 4 points from the b-class to the a-class.
    The sum is kept, and so is each size mod 4; with eps_s = [4 does not
    divide s] the good-pair term is g(s) = s - eps_s.  The coefficients of
    the pair factor (1 + a x + g_a x^2)(1 + b x + g_b x^2) change by

        degree 1:  0,
        degree 2:  4D - 16                        >= 4,
        degree 3:  8D - 32 - 4(eps_b - eps_a)     >= 4,
        degree 4:  4D - 16 - 4(eps_b - eps_a)     >= 0.

    The other r - 2 classes give a factor with coefficients R_j >= 0, so
    f_k(v') - f_k(v) >= 4 R_{k-2} + 4 R_{k-3} for k >= 4.  For k = 3 it is
    (4D - 16) R_1 plus the degree-3 change plus the change of the triangle
    terms, and the last two sum to >= 3: the triangle change depends only
    on a and b mod 12, and at fixed residues the degree-3 change grows by
    96 per 12 of D, so the cases a < 12, 5 <= D < 17 prove it (tests check
    them).
    Hence f_k(v') > f_k(v) unless k >= 4 and R_{k-3} = 0.  In that case
    fewer than k - 3 of the other r - 2 >= k - 2 classes are nonempty, so
    two are empty, a = 0 and g_a = 0: the pair factor is 1 + b x + g_b x^2
    and every R_j with j >= k - 2 vanishes, so f_k(v) = 0.  But n >= k
    lets k classes be nonempty, giving f_k >= 1.  Either way v is not a
    maximizer.  Below n = k every partition has f_k = 0 and ties.
    """
    if not r >= k >= 3:
        raise ValueError("need r >= k >= 3")
    if n < k:
        raise ValueError("need n >= k")
    best, ties = -1, []
    for counts, value in _candidates(n, r, k):
        if value > best:
            best, ties = value, [counts]
        elif value == best:
            ties.append(counts)
    argmax = sorted(
        (a,) * m0 + (a + 1,) * m1 + (a + 2,) * m2 + (a + 3,) * m3 + (a + 4,) * m4
        for a, m0, m1, m2, m3, m4 in ties
    )
    return FormulaResult(value=best, argmax=tuple(argmax))
